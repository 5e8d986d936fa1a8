"""Maximality certificates for thresholded iterates.

Two independent routes:

* fast_mis_check reads the definition off the neighbour counts c = A z: a
  binary z is a maximal independent set iff its members are exactly the
  nodes with no neighbour in it, (c == 0) == z. One adjacency product
  total, in float64 (adjacency_csr() @ z), and none when the caller
  already holds a product with the zero pattern of the counts: the solver
  passes its kept product A X, which is float32 like the rest of its
  kernel. Only the zero pattern is read, so the verdict is the same in
  either type.
* direct_mis_check walks the neighbourhoods of the set's members
  (Graph.is_maximal_independent), the plain reference.

Neither depends on gamma. With gamma >= n the projected-gradient fixed
points at binary points are exactly these sets, which the test suite pins
against the gradient's sign pattern.

fast_mis_check_batch reduces its (n, k) mask of agreeing entries to one
verdict per column with per_column, the column reduction the solver kernel
uses for its finiteness test too. The kernel checks every live column
whenever any support changed: the verdict is a pure function of the
support, so a column whose support did not change fails again.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph, NodeSet
from .objective import _as_assignment
from .objective import gradient, gradient_columns  # noqa: F401  (perfbench/tracer.py wraps these names)

# Rows from which per_column folds its reduction. Below it a plain reduce
# is faster: at 100 x 8 a plain reduce took 5.6 us and the fold 11.2 us,
# at 1290 x 32 38.9 and 15.0 us, and the two met between 320 and 384 rows
# at every width from 2 to 32 (2-core x86 box).
FOLD_MIN_ROWS = 384


class ContractViolation(ValueError):
    """Input that was promised binary is not."""


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

    Z is boolean or 0/1 floats. counts, when given, is any nonnegative
    (n, k) matrix with the zero pattern of the product A Z, and the check
    then computes no product: it reads only which entries are zero. The
    solver passes its kept float32 product A X, where Z = X > 0 and
    X >= 0. Entry (v, j) of A X is the sum of the terms a_vu x_uj >= 0
    with a_vu in {0, 1}; each term 1.0 * x_uj is exact, subnormal x_uj
    included, so the sum is 0.0 exactly when every term is, in any
    precision, in any order of summation and with or without fused
    multiply-adds; and a term is 0 exactly when a_vu z_uj is. So the
    verdict is the one A Z gives, bit for bit, on either product backend.
    The mask (counts == 0) == Z is reduced to one verdict per column with
    per_column.
    """
    if counts is None:
        counts = g.adjacency_product(Z)
    return per_column((counts == 0) == Z)


def per_column(D):
    """D.all(axis=0) for a boolean (n, k) matrix D.

    numpy reduces along axis 0 one k-wide row at a time, at a cost per
    row. From FOLD_MIN_ROWS rows on, the 32 slabs of whole rows are folded
    together first, which runs most of the reduction over long rows.
    """
    n, k = D.shape
    reduce = np.logical_and.reduce
    if k == 1 or n < FOLD_MIN_ROWS:
        return reduce(D, axis=0)
    head = n - n % 32
    folded = reduce(reduce(D[:head].reshape(32, -1), axis=0).reshape(-1, k), axis=0)
    return np.logical_and(reduce(D[head:], axis=0), folded)


def direct_mis_check(g: Graph, z) -> bool:
    """Reference check of the binary vector z by walking neighbourhoods:
    Graph.is_maximal_independent of the set z indicates."""
    z = _as_assignment(g, z)
    _require_binary(z)
    return g.is_maximal_independent(NodeSet(tuple(np.flatnonzero(z).tolist())))

