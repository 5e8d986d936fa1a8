"""Seeded random graph generators. er_args and gnm_args are the one check
of their arguments, which bench.parse_suite makes of a suite's instances too."""

from __future__ import annotations

import numpy as np

from .errors import InputError, _as_float, _checked_count
from .graph import Graph


class InvalidEdgeCount(InputError):
    """An edge count that is not an integer in [0, n(n-1)/2]."""


def er_args(n, p, seed) -> tuple[int, float, int]:
    """gen_er's arguments as Python numbers. InputError unless n and seed
    are integers >= 0 and p is a number in [0, 1]."""
    n, seed = _checked_count("n", n), _checked_count("seed", seed)
    p = _as_float("p", p)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"p must lie in [0, 1], got {p}")
    return n, p, seed


def gnm_args(n, m, seed) -> tuple[int, int, int]:
    """gen_gnm's arguments as Python ints. InputError unless n and seed
    are integers >= 0, and InvalidEdgeCount unless m is an integer in
    [0, n(n-1)/2]."""
    n, seed = _checked_count("n", n), _checked_count("seed", seed)
    m = _checked_count("m", m, error=InvalidEdgeCount)
    pairs = n * (n - 1) // 2
    if m > pairs:
        raise InvalidEdgeCount(f"m={m} exceeds the {pairs} pairs of {n} nodes")
    return n, m, seed


def gen_er(n: int, p: float, seed: int) -> Graph:
    """G(n, p): every unordered pair kept independently with probability p."""
    n, p, seed = er_args(n, p, seed)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph.from_edge_list(n, np.stack([iu[keep], ju[keep]], axis=1))


def gnm_edge_count(n: int) -> int:
    """ceil(n(n-1)/4): half of all pairs, the dense-benchmark edge budget."""
    return (n * (n - 1) + 3) // 4


def gen_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform simple graph with exactly m edges.

    Samples m distinct pair ranks without replacement and decodes each
    rank to its (u, v) position in the row-major upper triangle.
    """
    n, m, seed = gnm_args(n, m, seed)
    total = n * (n - 1) // 2
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(total, size=m, replace=False))
    counts = (n - 1) - np.arange(n, dtype=np.int64)
    starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    u = np.searchsorted(starts, idx, side="right") - 1
    v = idx - starts[u] + u + 1
    return Graph.from_edge_list(n, np.stack([u, v], axis=1))
