"""Maximality certificates for thresholded iterates.

Two independent routes:

* fast_mis_check reads the definition off the neighbour counts c = A z: a
  binary z is a maximal independent set iff its members are exactly the
  nodes with no neighbour in it, (c == 0) == z. One sparse matvec total,
  none when the caller already holds the counts.
* direct_mis_check walks every node's neighborhood, the plain reference.

Neither depends on gamma. With gamma >= n the projected-gradient fixed
points at binary points are exactly these sets, which the test suite pins
against the gradient's sign pattern.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, NodeSet
from .objective import _as_assignment
from .objective import gradient, gradient_columns  # noqa: F401  (perfbench/tracer.py wraps these names)


class ContractViolation(ValueError):
    """Input that was promised binary is not."""


def threshold(x) -> np.ndarray:
    """Strict-positive indicator of x, as a float64 0/1 vector.

    No epsilon: any positive value counts, exactly zero does not. Dust
    near zero therefore inflates the candidate set, and the checks below
    reject such sets rather than silently rounding them away.
    """
    return (np.asarray(x, dtype=np.float64) > 0.0).astype(np.float64)


def _require_binary(z: np.ndarray) -> None:
    if not ((z == 0.0) | (z == 1.0)).all():
        raise ContractViolation("vector must be exactly binary")


def fast_mis_check(g: Graph, z) -> bool:
    """True iff the binary vector z is the indicator of a maximal independent set."""
    z = _as_assignment(g, z)
    _require_binary(z)
    return bool(fast_mis_check_batch(g, z[:, None])[0])


def fast_mis_check_batch(g: Graph, Z: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Column-wise fast check of an (n, k) binary matrix; no validation.

    Z is boolean or 0/1 floats. counts, when given, is the product A Z
    (the neighbour counts the solver keeps), and the check then computes
    no product.
    """
    if counts is None:
        counts = g.adjacency_csr().dot(Z)
    return ((counts == 0) == Z).all(axis=0)


def direct_mis_check(g: Graph, z) -> bool:
    """Reference check that iterates over all the nodes.

    A member node must have no member neighbors; a non-member node must
    have at least one, otherwise it could be added.
    """
    z = _as_assignment(g, z)
    _require_binary(z)
    in_set = z > 0.5
    for v in range(g.n):
        nbrs = g.neighbors(v)
        hit = bool(in_set[nbrs].any()) if nbrs.size else False
        if in_set[v]:
            if hit:
                return False
        elif not hit:
            return False
    return True


def support(z) -> NodeSet:
    """Node set selected by a binary vector."""
    return NodeSet(tuple(int(v) for v in np.flatnonzero(np.asarray(z) > 0.5)))
