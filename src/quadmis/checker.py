"""Maximality certificates for thresholded iterates.

Two independent routes:

* fast_mis_check reduces a projected-gradient fixed-point test at a binary
  point to sign conditions on the gradient, one sparse matvec total (none
  when the caller already holds the neighbour counts A z).
* direct_mis_check walks every node's neighborhood, the plain reference.

They agree on every binary vector whenever gamma >= n; the solver uses the
fast route and the test suite pins the agreement.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, NodeSet
from .objective import ObjectiveParams, _as_assignment, gradient_columns, gradient_from_product
from .objective import gradient  # noqa: F401  (perfbench/tracer.py wraps this name)


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


def fast_mis_check(g: Graph, p: ObjectiveParams, z) -> bool:
    """True iff z is a fixed point of a projected gradient step.

    At a binary z the projection equality collapses to sign conditions:
    the gradient must be >= 0 wherever z_v = 0 and <= 0 wherever z_v = 1.
    With gamma >= n this certifies exactly the maximal independent sets;
    below that regime the test is still well defined but may accept
    vectors that a maximality scan rejects.
    """
    z = _as_assignment(g, z)
    _require_binary(z)
    return bool(fast_mis_check_batch(g, p, z[:, None])[0])


def fast_mis_check_batch(g: Graph, p: ObjectiveParams, Z: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """Column-wise fast check of an (n, k) binary matrix; no validation.

    Hot path for the solver, which thresholds immediately before calling.
    counts, when given, is the product A Z as integer-valued float64 (the
    neighbour counts the solver keeps); the check then computes no product
    and overwrites counts. Both routes run the same formula on the same
    integers, so they give the same verdict.
    """
    grad = gradient_columns(g, p, Z) if counts is None else gradient_from_product(p, counts, Z)
    bad = np.where(Z == 1.0, grad > 0.0, grad < 0.0)
    return ~bad.any(axis=0)


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
