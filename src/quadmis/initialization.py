"""Starting points for the batched solver.

Draw k is a pure function of (seed, k): reordering, batch boundaries, and
worker layout cannot change what initialization k looks like.

The settings behind the draws belong to SolverConfig, which checks them
once; initial_mean resolves the scheme into a mean, None for uniform starts.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import InputError
from .graph import Graph

SCHEMES = ("random", "degree", "external-mean")


class DegenerateDegreeMean(UserWarning):
    """Degrees carry no signal; a flat mean was substituted."""


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(k)])


def noise(n: int, seed: int, k: int) -> np.ndarray:
    """Unit-variance Gaussian draw behind initialization k."""
    return _rng(seed, k).standard_normal(n)


def degree_mean(g: Graph) -> np.ndarray:
    """Mean vector favoring low-degree nodes: 1 - d(v)/max_degree, rescaled
    so its largest entry is 1.

    Two degenerate shapes get flat substitutes with a warning: edgeless
    graphs (every node belongs to the unique maximal set) use all ones,
    regular graphs (the formula vanishes identically) use all 0.5.
    """
    if g.max_degree == 0:
        warnings.warn(
            "edgeless graph: degree mean degenerates, using all ones",
            DegenerateDegreeMean,
            stacklevel=2,
        )
        return np.ones(g.n)
    raw = 1.0 - g.degrees / g.max_degree
    top = raw.max()
    if top == 0.0:
        warnings.warn(
            "regular graph: degree mean degenerates, using flat 0.5",
            DegenerateDegreeMean,
            stacklevel=2,
        )
        return np.full(g.n, 0.5)
    return raw / top


def sample_block(n: int, mean: np.ndarray | None, seed: int, start: int, stop: int, eta: float = 0.0) -> np.ndarray:
    """Columns start..stop-1 of the initialization sequence as an (n, w) matrix.

    Uniform draws on the box when mean is None. Otherwise the draws are
    sample_around(mean, eta, ...), and draw 0 is the clamped mean itself.
    """
    if mean is None:
        out = np.empty((n, stop - start), dtype=np.float64)
        for j in range(stop - start):
            out[:, j] = _rng(seed, start + j).random(n)
        return out
    out = sample_around(mean, eta, seed, start, stop)
    if start == 0:
        out[:, 0] = np.clip(mean, 0.0, 1.0)
    return out


def sample_around(centre: np.ndarray, eta: float, seed: int, start: int, stop: int) -> np.ndarray:
    """Draws start..stop-1 of Normal(centre, eta I) clamped to the box, as columns.

    Draw k adds noise(n, seed, k) scaled by sqrt(eta), so it depends on the
    centre, eta, seed and k only.
    """
    std = float(np.sqrt(eta))
    out = np.empty((centre.size, stop - start), dtype=np.float64)
    for j in range(stop - start):
        out[:, j] = np.clip(centre + std * noise(centre.size, seed, start + j), 0.0, 1.0)
    return out


def initial_mean(g: Graph, scheme: str, mean: tuple[float, ...] | None) -> np.ndarray | None:
    """The scheme's mean, resolved once per solve; None for uniform starts.
    InputError for an external mean whose length is not g.n."""
    if scheme == "degree":
        return degree_mean(g)
    if mean is not None and len(mean) != g.n:
        raise InputError(f"mean vector has {len(mean)} entries, graph has {g.n} nodes")
    return None if mean is None else np.array(mean)


def load_mean_file(path) -> np.ndarray:
    """Plain-text mean vector, one real per line; SolverConfig checks the values."""
    try:
        return np.atleast_1d(np.loadtxt(path, dtype=np.float64))
    except ValueError as exc:
        raise InputError(f"mean file {path}: {exc}") from None
