"""Seeded random graph generators."""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .graph import Graph


class InvalidEdgeCount(InputError):
    """Requested more edges than the node count allows."""


def _check_size_and_seed(n: int, seed: int) -> None:
    if n < 0:
        raise InputError(f"n must be non-negative, got {n}")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")


def gen_er(n: int, p: float, seed: int) -> Graph:
    """G(n, p): every unordered pair kept independently with probability p."""
    _check_size_and_seed(n, seed)
    if not 0.0 <= p <= 1.0:
        raise InputError("p must lie in [0, 1]")
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
    _check_size_and_seed(n, seed)
    total = n * (n - 1) // 2
    if m < 0 or m > total:
        raise InvalidEdgeCount(f"m={m} outside [0, {total}] for n={n}")
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(total, size=m, replace=False))
    counts = (n - 1) - np.arange(n, dtype=np.int64)
    starts = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(counts)])
    u = np.searchsorted(starts, idx, side="right") - 1
    v = idx - starts[u] + u + 1
    return Graph.from_edge_list(n, np.stack([u, v], axis=1))
