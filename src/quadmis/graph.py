"""Immutable undirected simple graphs stored in CSR form.

Graph.from_edge_list builds the CSR arrays with one sort of int64 entry
keys u * n + v, so a graph has fewer than 2^31 nodes.

The complement graph is never materialized anywhere in this package.
Everything the solver needs from it follows from sum identities (see
objective.py), so it needs only products A·X with the input graph's
adjacency matrix. A graph takes those products on one of two backends,
fixed by its node and edge counts alone (_dense_adjacency): a dense
float64 n x n matrix and BLAS where 8m >= n^2, which then takes no more
words than the 8(n + m) a sparse solve may use, and a scipy CSR matrix
otherwise. Memory scales with the edges of the input graph either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from scipy import sparse

from .errors import InputError

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
    """Whether a graph with n nodes and m edges takes its adjacency
    products as dense BLAS products: where 8m >= n^2 (and n > 0).

    There the n^2 words of the dense matrix fit in the 8(n + m) words a
    solve may use, and on G(800, 159800) one product of 32 columns took
    1.5 ms on one BLAS thread against 5.1 ms as a CSR product (2-core x86).
    """
    return n > 0 and 8 * m >= n * n


class Graph:
    """Undirected simple graph on nodes 0..n-1 with sorted CSR adjacency.

    Instances are immutable after construction. backend, "dense" or
    "csr", names the operator adjacency_product multiplies by; it is set
    once, from n and m. The operator is built lazily on first use and
    cached; solve() builds it before its workers fork, so they share it.
    """

    __slots__ = ("n", "m", "indptr", "indices", "degrees", "max_degree", "backend", "_csr", "_dense")

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
        self._dense = None

    @classmethod
    def from_edge_list(cls, n: int, edges) -> "Graph":
        """Build from (u, v) pairs; duplicates and mirrored pairs collapse.

        Accepts any iterable of pairs or an (m, 2) integer array, on fewer
        than 2^31 nodes.
        """
        if n < 0:
            raise ValueError("node count must be non-negative")
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
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = src < self.indices
        return np.stack([src[keep], self.indices[keep].astype(np.int64)], axis=1)

    def adjacency_csr(self) -> sparse.csr_matrix:
        """Adjacency matrix as float64 scipy CSR, cached after first use.

        The products take adjacency(), which is this matrix only on the CSR
        backend; a dense graph builds it only when asked."""
        if self._csr is None:
            data = np.ones(self.indices.size, dtype=np.float64)
            csr = sparse.csr_matrix(
                (data, self.indices, self.indptr), shape=(self.n, self.n)
            )
            csr.has_sorted_indices = True
            self._csr = csr
        return self._csr

    def adjacency(self) -> np.ndarray | sparse.csr_matrix:
        """The operator adjacency_product multiplies by, cached after first
        use: a float64 n x n array on the dense backend, else
        adjacency_csr(). The dense matrix is filled row by row straight
        from indptr and indices, so no CSR float data is made for it."""
        if self.backend == "csr":
            return self.adjacency_csr()
        if self._dense is None:
            dense = np.zeros((self.n, self.n))
            for v in range(self.n):
                dense[v, self.neighbors(v)] = 1.0
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    def adjacency_product(self, X: np.ndarray) -> np.ndarray:
        """A·X for an (n, k) matrix X of floats or booleans, as a new
        C-ordered float64 array.

        Column j of the result depends only on column j of X, bit for bit,
        whatever the width, layout or position of the block. A CSR product
        adds each row's entries in index order. A dense one runs on a copy
        of X zero-padded to a C-ordered block whose width is a multiple of
        8: unpadded, BLAS sums some widths (1-4, 9-12, ... on
        G(120, 3570)) in another order. A C-ordered float64 X whose width
        is already a multiple of 8 is that copy, so it goes to BLAS as it is.
        """
        if self.backend == "csr":
            return self.adjacency_csr().dot(X)
        n, k = X.shape
        if k % 8 == 0 and X.dtype == np.float64 and X.flags.c_contiguous:
            return self.adjacency() @ X
        padded = np.zeros((n, -(-k // 8) * 8))
        padded[:, :k] = X
        product = self.adjacency() @ padded
        return product if product.shape[1] == k else np.ascontiguousarray(product[:, :k])

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
