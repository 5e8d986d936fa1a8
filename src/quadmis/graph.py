"""Immutable undirected simple graphs stored in CSR form.

Graph.from_edge_list builds the CSR arrays with one sort of int64 entry
keys u * n + v, so a graph has fewer than 2^31 nodes.

The complement graph is never materialized anywhere in this package.
Everything the solver needs from it follows from sum identities (see
objective.py), so it needs only products A·X with the input graph's
adjacency matrix, in one of two floating types.

The solver kernel (optimizer._run_block) works in KERNEL_DTYPE, float32,
which halves the bytes of every product against float64. Its products
(kernel_product) run on one of two backends, fixed by the graph's node
and edge counts alone (_dense_adjacency): a dense float32 n x n matrix
and BLAS where 8m >= n^2, which then takes no more words than the
8(n + m) a sparse solve may use, and scipy's CSR loops otherwise. Memory
scales with the edges of the input graph either way. The checks of the
mathematics (objective.evaluate and gradient, and the fast check where it
takes its own product) stay float64: adjacency_product multiplies by
adjacency_csr(), scipy's float64 CSR matrix, on either backend.

A large CSR product visits only the rows of X that hold a nonzero entry:
the columns of A at those rows, which are A's CSR rows since A is
symmetric, are scattered into the result in ascending order. Clipping to
the box leaves most of a solver block's rows at exactly 0, and a skipped
row only adds +0.0 or -0.0 to a sum that starts at +0.0, so the product
is the whole product bit for bit (_scatter_product).

The kernel's CSR product is the one caller of scipy's compiled loops in
scipy.sparse._sparsetools, on indptr, indices and the float32 ones that
adjacency() holds: csr_matvecs for the whole product, csr_row_index to
gather the rows a scatter visits and csc_matvecs to scatter them. These
are the loops csr.dot(X) and csr[rows].T.dot(X[rows]) reach, given the
same operands in the same order, so the bits are theirs (at width 1 scipy
takes its one-column loops, which add the same terms in the same order),
and the solver builds no sparse matrix object. All three loops exist with
these signatures throughout the declared scipy>=1.10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .errors import InputError, _checked_count

# A CSR product whose stored entries times columns fall below this is taken
# whole: the scatter's set-up (finding X's nonzero rows and gathering A's
# rows) then costs more than it saves. Over the products of two-batch solves
# (2-core x86), those of G(400, 0.1) at 32 columns (5.1e5) took 118 ms whole
# against 137 ms scattered, and those of a planted 3-SAT graph of 1290 nodes
# (3.5e5) 69 against 152 ms; all those of G(700, 0.15) took 936 ms whole
# against 596 ms with both cut-offs.
SCATTER_MIN_WORK = 2**20

# A CSR product whose X has nonzero entries in more than this share of its
# rows is taken whole: on G(700, 0.15) and G(1000, 0.05) products with
# 0.75-1.0 of their rows nonzero took 117 ms whole against 141 ms scattered,
# those with 0.65-0.75 broke even, and sparser ones gained.
SCATTER_MAX_ROW_SHARE = 0.75

# The solver kernel's floating type. Its certificate is exact in it: the
# check reads only the zero pattern of A·X with X >= 0, and a sum of the
# terms 1.0 * x >= 0 is 0 only when every term is, in any precision.
KERNEL_DTYPE = np.float32

# Dense kernel products run on blocks zero-padded to a multiple of this
# width. Unpadded, or padded to a multiple of 8, OpenBLAS's sgemm sums a
# column in an order that depends on the block's width and the column's
# place in it (G(50, 600), G(120, 3570) and G(333, 27000), 2-core x86);
# padded to 16 every column of widths 1-96 had the bits of its width-1
# product there and on G(800, 159800).
DENSE_PAD = 16


class InvalidEdge(InputError):
    """Self-loop, endpoint outside [0, n), or a graph too large for int32
    adjacency indices."""


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing tuple of node indices."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.members and self.members[0] < 0:
            raise ValueError("node indices must be non-negative")
        for a, b in zip(self.members, self.members[1:]):
            if b <= a:
                raise ValueError("node indices must be strictly increasing")

    @classmethod
    def of(cls, nodes: Iterable[int]) -> "NodeSet":
        """Build from any iterable; sorts and deduplicates."""
        return cls(tuple(sorted({int(v) for v in nodes})))

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)


def _dense_adjacency(n: int, m: int) -> bool:
    """Whether a graph with n nodes and m edges takes its kernel products
    as dense BLAS products: where 8m >= n^2 (and n > 0).

    There the n^2 float32 entries of the dense matrix fit in the 8(n + m)
    words a solve may use, and on G(800, 159800) one float32 product of 32
    columns took 0.5 ms on one BLAS thread against 2.0 ms as a CSR product
    (2-core x86).
    """
    return n > 0 and 8 * m >= n * n


class Graph:
    """Undirected simple graph on nodes 0..n-1 with sorted CSR adjacency.

    Instances are immutable after construction. backend, "dense" or
    "csr", names the operator kernel_product multiplies by; it is set
    once, from n and m. The operator (adjacency()) is built lazily on
    first use and cached; solve() builds it before its workers fork, so
    they share it.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "max_degree", "backend", "_csr", "_operator")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self.indptr = indptr
        self.indices = indices
        self.m = int(indices.size // 2)
        self.degrees = np.diff(indptr.astype(np.int64))
        self.max_degree = int(self.degrees.max()) if self.n else 0
        for arr in (self.indptr, self.indices, self.degrees):
            arr.setflags(write=False)
        self.backend = "dense" if _dense_adjacency(self.n, self.m) else "csr"
        self._csr = None
        self._operator = None

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "Graph":
        """Build from (u, v) pairs; duplicates and mirrored pairs collapse.

        Accepts any iterable of pairs or an (m, 2) integer array, on fewer
        than 2^31 nodes; n must be an integer >= 0 (InputError).
        """
        n = _checked_count("node count", n)
        # int32 indices keep the scipy matvec path copy-free, and below 2^31
        # nodes every entry key u * n + v fits in int64
        if n >= 2**31:
            raise InvalidEdge("node count too large for 32-bit adjacency indices")
        if isinstance(edges, np.ndarray):
            e = edges.astype(np.int64, copy=False).reshape(-1, 2)
        else:
            e = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= n:
                raise InvalidEdge("edge endpoint outside [0, n)")
            if (e[:, 0] == e[:, 1]).any():
                raise InvalidEdge("self-loops are not allowed")
        # entry (u, v) has key u * n + v, so sorted keys run row by row with
        # each row's columns ascending: one sort, and a mask to drop repeats
        keys = np.concatenate([e[:, 0] * n + e[:, 1], e[:, 1] * n + e[:, 0]])
        keys.sort()
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        if keys.size >= 2**31:
            raise InvalidEdge("graph too large for 32-bit adjacency indices")
        rows, cols = np.divmod(keys, n)
        indices = cols.astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return cls(n, indptr, indices)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor indices of v (read-only view)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def is_independent(self, s: NodeSet) -> bool:
        """True iff no edge joins two members of s."""
        mask = np.zeros(self.n, dtype=bool)
        members = list(s)
        mask[members] = True
        return not any(mask[self.neighbors(v)].any() for v in members)

    def is_maximal_independent(self, s: NodeSet) -> bool:
        """True iff s is independent and every outside node has a neighbor in s."""
        if not self.is_independent(s):
            return False
        covered = np.zeros(self.n, dtype=bool)
        covered[list(s)] = True
        for v in s:
            covered[self.neighbors(v)] = True
        return bool(covered.all())

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of edges with u < v, lexicographically sorted."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep].astype(np.int64)], axis=1)

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Adjacency matrix as float64 scipy CSR, read-only and cached
        after first use: the operator of adjacency_product. The solver
        never builds it. scipy copies indices into it, so it takes 12
        bytes per stored entry."""
        if self._csr is None:
            data = np.ones(self.indices.size, dtype=np.float64)
            csr = sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
            csr.has_sorted_indices = True
            csr.data.setflags(write=False)
            csr.indices.setflags(write=False)
            self._csr = csr
        return self._csr

    def adjacency(self) -> np.ndarray:
        """The solver kernel's operator in KERNEL_DTYPE, read-only and
        cached after first use: the dense n x n matrix on the dense
        backend, else the stored values (all ones) of the CSR matrix that
        indptr and indices lay out. The dense matrix is filled in one
        assignment straight from indptr and indices."""
        if self._operator is None:
            if self.backend == "csr":
                operator = np.ones(self.indices.size, dtype=KERNEL_DTYPE)
            else:
                operator = np.zeros((self.n, self.n), dtype=KERNEL_DTYPE)
                # int32 row ids: the one temporary takes m 8-byte words beside the n^2/2
                operator[np.repeat(np.arange(self.n, dtype=np.int32), self.degrees), self.indices] = 1.0
            operator.setflags(write=False)
            self._operator = operator
        return self._operator

    def adjacency_product(self, X: np.ndarray) -> np.ndarray:
        """A·X for an (n, k) matrix X of floats or booleans, as a new
        C-ordered float64 array: adjacency_csr() @ X, the product of the
        checks of the mathematics (objective.evaluate and gradient, and
        the fast check when it is given no product). It takes scipy's CSR
        loops on either backend, so it does not depend on the BLAS thread
        count.
        """
        _require_height(self, X)
        return self.adjacency_csr() @ X

    def kernel_product(self, X: np.ndarray) -> np.ndarray:
        """A·X for an (n, k) matrix X, cast to KERNEL_DTYPE, as a new
        C-ordered KERNEL_DTYPE array on the graph's backend: the solver
        kernel's product.

        Column j of the result depends only on column j of X, bit for bit,
        whatever the width, layout or position of the block. A CSR product
        is _csr_product's. A dense product runs on a copy of X zero-padded
        to a C-ordered block whose width is a multiple of DENSE_PAD. A
        C-ordered KERNEL_DTYPE X whose width is already a multiple of
        DENSE_PAD is that copy, so it goes to BLAS as it is.
        """
        n, k = _require_height(self, X)
        if self.backend == "csr":
            return self._csr_product(X.astype(KERNEL_DTYPE, copy=False))
        if k % DENSE_PAD == 0 and X.dtype == KERNEL_DTYPE and X.flags.c_contiguous:
            return self.adjacency() @ X
        padded = np.zeros((n, -(-k // DENSE_PAD) * DENSE_PAD), dtype=KERNEL_DTYPE)
        padded[:, :k] = X
        product = self.adjacency() @ padded
        return product if product.shape[1] == k else np.ascontiguousarray(product[:, :k])

    def _csr_product(self, X: np.ndarray) -> np.ndarray:
        """A·X for a KERNEL_DTYPE X, in KERNEL_DTYPE, by scipy's compiled
        loops on indptr, indices and the stored values adjacency() holds.

        Each row's entries are added in index order into a zeroed result,
        so each column's bits are those of the product of that column
        alone. From SCATTER_MIN_WORK stored entries times columns on, and
        where at most SCATTER_MAX_ROW_SHARE of X's rows hold a nonzero
        entry, the product visits only those rows (_scatter_product):
        every entry still receives its terms in index order, and the terms
        it skips are zeros that change no bit.
        """
        n, k = X.shape
        ones = self.adjacency()
        if self.indices.size * k >= SCATTER_MIN_WORK:
            rows = np.flatnonzero(X.any(axis=1))
            if rows.size <= SCATTER_MAX_ROW_SHARE * n:
                return _scatter_product(self.indptr, self.indices, ones, X, rows)
        product = np.zeros((n, k), dtype=KERNEL_DTYPE)
        _sparsetools.csr_matvecs(n, n, k, self.indptr, self.indices, ones, X.ravel(), product.ravel())
        return product

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _require_height(g: Graph, X: np.ndarray) -> tuple[int, int]:
    """The shape of X, which must have a row for every node of g: the
    compiled loops read X at every node's row."""
    n, k = X.shape
    if n != g.n:
        raise ValueError(f"X has {n} rows for a graph of {g.n} nodes")
    return n, k


def _scatter_product(indptr, indices, data, X, rows):
    """A·X for the symmetric CSR matrix A that indptr, indices and data
    lay out, visiting only the given ascending rows of X, which must hold
    all of its nonzero entries. The result has the dtype of data.

    A·X is the sum over j in rows of A[:, j] X[j, :], and the columns of A
    at rows are its CSR rows there. Two of scipy's compiled loops, both in
    every scipy>=1.10, take the product. _sparsetools.csr_row_index gathers
    those rows' index lists and data, and their row pointer is the running
    sum of their lengths: the arrays of csr[rows], built by scipy's own
    loop. _sparsetools.csc_matvecs then reads them as the CSC matrix
    csr[rows].T and scatters its columns one after another into a result
    of +0.0s, as csr[rows].T.dot(X[rows]) does. Entry i then receives the
    terms x_j (a_ij = 1.0) in ascending j, as the whole CSR product adds
    them. That product also adds the skipped rows' terms, each +0.0 or
    -0.0. A partial sum that starts at +0.0 never becomes -0.0 under
    round-to-nearest, and adding a zero of either sign to it changes no
    bit (NaN and inf included), so the two results are equal bit for bit.
    """
    n, k = X.shape
    rows = rows.astype(indices.dtype, copy=False)
    sub_indptr = np.zeros(rows.size + 1, dtype=indices.dtype)
    np.cumsum(indptr[rows + 1] - indptr[rows], out=sub_indptr[1:])
    sub_indices = np.empty(sub_indptr[-1], dtype=indices.dtype)
    sub_data = np.empty(sub_indptr[-1], dtype=data.dtype)
    _sparsetools.csr_row_index(rows.size, rows, indptr, indices, data, sub_indices, sub_data)
    product = np.zeros((n, k), dtype=data.dtype)
    _sparsetools.csc_matvecs(n, rows.size, k, sub_indptr, sub_indices, sub_data, X[rows].ravel(), product.ravel())
    return product
