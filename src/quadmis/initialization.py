"""Starting points for the batched solver.

Draw k is a pure function of (seed, k): reordering, batch boundaries, and
worker layout cannot change what initialization k looks like.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph

SCHEMES = ("random", "degree", "external-mean")


class DegenerateDegreeMean(UserWarning):
    """Degrees carry no signal; a flat mean was substituted."""


@dataclass(frozen=True)
class InitSpec:
    scheme: str
    eta: float = 2.25
    seed: int = 0
    mean: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise InputError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.eta < 0.0:
            raise InputError("eta must be non-negative")
        if self.seed < 0:
            raise InputError("seed must be a non-negative integer")
        if self.scheme == "external-mean":
            if self.mean is None:
                raise InputError("external-mean scheme needs a mean vector")
            m = np.asarray(self.mean, dtype=np.float64)
            if m.ndim != 1 or ((m < 0.0) | (m > 1.0)).any():
                raise InputError("mean entries must lie in [0, 1]")
            m.setflags(write=False)
            object.__setattr__(self, "mean", m)
        elif self.mean is not None:
            raise InputError(f"{self.scheme!r} scheme does not take a mean vector")


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


def sample_block(n: int, spec: InitSpec, mean: np.ndarray | None, start: int, stop: int) -> np.ndarray:
    """Columns start..stop-1 of the initialization sequence as an (n, w) matrix.

    The gaussian schemes draw around the mean, and draw 0 is the clamped
    mean itself.
    """
    width = stop - start
    if spec.scheme == "random":
        out = np.empty((n, width), dtype=np.float64)
        for j in range(width):
            out[:, j] = _rng(spec.seed, start + j).random(n)
        return out
    if mean is None:
        raise ValueError("gaussian schemes need a mean vector")
    out = sample_around(mean, spec.eta, spec.seed, start, stop)
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


def initial_mean(g: Graph, spec: InitSpec) -> np.ndarray | None:
    """Resolve the scheme's mean vector once per solve; None for random."""
    if spec.scheme == "random":
        return None
    if spec.scheme == "degree":
        return degree_mean(g)
    return np.asarray(spec.mean, dtype=np.float64)


def load_mean_file(path) -> np.ndarray:
    """Plain-text mean vector, one real per line."""
    try:
        values = np.atleast_1d(np.loadtxt(path, dtype=np.float64))
    except ValueError as exc:
        raise InputError(f"mean file {path}: {exc}") from None
    if values.ndim != 1:
        raise InputError("expected one real per line")
    if ((values < 0.0) | (values > 1.0)).any():
        raise InputError("mean entries must lie in [0, 1]")
    return values
