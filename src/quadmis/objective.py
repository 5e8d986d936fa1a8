"""Penalized quadratic objective driving the independent-set search.

For x in [0,1]^n the objective is

    f(x) = -sum(x) + (gamma/2) x^T A x - (1/2) x^T A' x

where A is the adjacency matrix of the input graph and A' that of its
complement. The complement term is always expanded through

    x^T A' x = (sum x)^2 - x.x - x^T A x

so evaluation and gradients cost one adjacency product plus vector
reductions and no complement structure ever exists. The expansion is the
contract, not an optimization; a materialized-complement reference lives
only in the test suite. The product is Graph.adjacency_product: a dense
BLAS product on graphs with 8m >= n^2, a CSR product otherwise, each
width-invariant bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .graph import Graph


class DimensionError(ValueError):
    """Assignment length does not match the graph's node count."""


class InvalidGamma(InputError):
    """Edges-penalty value outside its admissible range, or an unknown
    gamma string."""


@dataclass(frozen=True)
class ObjectiveParams:
    """Edges penalty plus the complement-term toggle.

    gamma must exceed 1 while the complement term is enabled (otherwise
    the quadratic reward for non-adjacent pairs can exceed the edge
    penalty) and must be positive and finite always (an infinite gamma
    times a zero product is NaN).
    """

    gamma: float
    complement_term_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise InvalidGamma(f"gamma must be positive and finite, got {self.gamma}")
        if self.complement_term_enabled and not self.gamma > 1.0:
            raise InvalidGamma("gamma must exceed 1 when the complement term is enabled")


def _as_assignment(g: Graph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (g.n,):
        raise DimensionError(f"expected length-{g.n} vector, got shape {arr.shape}")
    return arr


def evaluate(g: Graph, p: ObjectiveParams, x) -> float:
    """Objective value at x; one adjacency product.

    The product takes the caller's BLAS thread count (solve and
    run_resampling pin it to one); on large dense graphs its last bits
    depend on that count, by up to 1.1e-13 on G(2000, 999500).
    """
    x = _as_assignment(g, x)
    ax = g.adjacency_product(x[:, None])[:, 0]
    quad = float(x @ ax)
    s = float(x.sum())
    value = -s + 0.5 * p.gamma * quad
    if p.complement_term_enabled:
        comp_quad = s * s - float(x @ x) - quad
        value -= 0.5 * comp_quad
    return value


def gradient(g: Graph, p: ObjectiveParams, x) -> np.ndarray:
    """Gradient at x: gradient_columns on x as a single column.

    With the complement term: -1 + (gamma + 1) A x - (sum(x) - x).
    Without it: -1 + gamma A x.
    """
    x = _as_assignment(g, x)
    return gradient_columns(g, p, x[:, None])[:, 0]


def gradient_columns(g: Graph, p: ObjectiveParams, X: np.ndarray) -> np.ndarray:
    """Gradient of every column of an (n, k) matrix at once.

    Column j of the result depends only on column j of X, bit for bit: the
    same column gives the same gradient in a block of any width or layout.
    The batched form exists so the solver can amortize the product.
    Outside solve and run_resampling, which pin BLAS to one thread, the
    product takes the caller's BLAS thread count, and on large dense
    graphs its last bits depend on it: by up to 1.1e-13 on G(2000, 999500).
    """
    if X.ndim != 2 or X.shape[0] != g.n:
        raise DimensionError(f"expected (n, k) matrix with n={g.n}, got {X.shape}")
    G = g.adjacency_product(X)
    # (gamma + 1) A X - sum(X) + X - 1, evaluated in place left to right
    if p.complement_term_enabled:
        G *= p.gamma + 1.0
        G -= _column_sums(X)
        G += X
    else:
        G *= p.gamma
    G -= 1.0
    return G


def _column_sums(X: np.ndarray) -> np.ndarray:
    """Sums of the columns of X, each added row by row from the top.

    numpy adds row by row only for a C-ordered array at least two columns
    wide; a single column or an F-ordered one is summed pairwise, which
    rounds differently. Adding in one fixed order makes every column's sum
    independent of the width and layout of the matrix it sits in.
    """
    if X.shape[1] == 1 and X.shape[0] > 0:
        return np.cumsum(X, axis=0)[-1]
    return np.ascontiguousarray(X).sum(axis=0)

