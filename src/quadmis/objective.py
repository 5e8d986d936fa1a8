"""Penalized quadratic objective driving the independent-set search.

For x in [0,1]^n the objective is

    f(x) = -sum(x) + (gamma/2) x^T A x - (1/2) x^T A' x

where A is the adjacency matrix of the input graph and A' that of its
complement. The complement term is always expanded through

    x^T A' x = (sum x)^2 - x.x - x^T A x

so evaluation and gradients cost one sparse matvec plus vector reductions
and no complement structure ever exists. The expansion is the contract,
not an optimization; a materialized-complement reference lives only in
the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .graph import Graph


class DimensionError(ValueError):
    """Assignment length does not match the graph's node count."""


class InvalidGamma(InputError):
    """Edges-penalty value outside its admissible range."""


@dataclass(frozen=True)
class ObjectiveParams:
    """Edges penalty plus the complement-term toggle.

    gamma must exceed 1 while the complement term is enabled (otherwise
    the quadratic reward for non-adjacent pairs can outweigh the edge
    penalty) and must be positive always.
    """

    gamma: float
    complement_term_enabled: bool = True

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise InvalidGamma("gamma must be positive")
        if self.complement_term_enabled and not self.gamma > 1.0:
            raise InvalidGamma("gamma must exceed 1 when the complement term is enabled")


def _as_assignment(g: Graph, x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (g.n,):
        raise DimensionError(f"expected length-{g.n} vector, got shape {arr.shape}")
    return arr


def evaluate(g: Graph, p: ObjectiveParams, x) -> float:
    """Objective value at x; one adjacency matvec."""
    x = _as_assignment(g, x)
    ax = g.adjacency_csr().dot(x)
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
    The batched form exists so the solver can amortize the sparse matvec.
    """
    if X.ndim != 2 or X.shape[0] != g.n:
        raise DimensionError(f"expected (n, k) matrix with n={g.n}, got {X.shape}")
    G = g.adjacency_csr().dot(X)
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


def gamma_floor_wei(g: Graph) -> int:
    """Ceiling of the degree-sum lower bound on the maximum IS size, plus one.

    The bound sum_v 1/(1 + d(v)) is accumulated exactly in rationals so the
    ceiling never suffers a float tie.
    """
    total = sum(Fraction(1, 1 + int(d)) for d in g.degrees)
    return math.ceil(total) + 1


# The edges-penalty selection modes, each with the value it gives a graph.
# With "strict-n" the binary fixed points of projected gradient descent are
# exactly the maximal independent sets; "wei-floor" is a cheaper floor under
# which maximum sets are still fixed points. The solver's certificate checks
# maximality directly, so either mode reports only maximal independent sets.
GAMMA_MODES = {"wei-floor": gamma_floor_wei, "strict-n": lambda g: g.n}


def gamma_select(g: Graph, mode, complement_term_enabled: bool = True) -> ObjectiveParams:
    """Resolve an edges-penalty choice against a graph.

    mode is one of GAMMA_MODES or a fixed number, which ObjectiveParams
    checks.
    """
    if isinstance(mode, str) and mode in GAMMA_MODES:
        value = float(GAMMA_MODES[mode](g))
    elif isinstance(mode, (int, float)) and not isinstance(mode, bool):
        value = float(mode)
    else:
        raise InvalidGamma(f"unknown gamma mode: {mode!r}")
    return ObjectiveParams(gamma=value, complement_term_enabled=complement_term_enabled)
