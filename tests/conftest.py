"""Shared fixtures and slow-but-obvious reference implementations.

The references here materialize everything the package refuses to
(dense adjacency, the complement graph) so tests can compare against
an independent formulation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from quadmis import Graph, ObjectiveParams, gradient


@pytest.fixture
def fig1() -> Graph:
    # 5 nodes, two maximum independent sets of size 3: {0,3,4} and {2,3,4}.
    return Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 3), (1, 4)])


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edge_array():
        a[u, v] = 1.0
        a[v, u] = 1.0
    return a


def complement_adjacency(g: Graph) -> np.ndarray:
    a = dense_adjacency(g)
    return np.ones((g.n, g.n)) - np.eye(g.n) - a


def reference_objective(g: Graph, p: ObjectiveParams, x) -> float:
    x = np.asarray(x, dtype=np.float64)
    a = dense_adjacency(g)
    val = -x.sum() + 0.5 * p.gamma * (x @ a @ x)
    if p.complement_term_enabled:
        val -= 0.5 * (x @ complement_adjacency(g) @ x)
    return float(val)


def reference_gradient(g: Graph, p: ObjectiveParams, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    a = dense_adjacency(g)
    grad = -np.ones(g.n) + p.gamma * (a @ x)
    if p.complement_term_enabled:
        grad -= complement_adjacency(g) @ x
    return grad


def sign_test(g: Graph, p: ObjectiveParams, z) -> bool:
    """The projected-gradient fixed-point test at a binary z: the gradient
    is <= 0 on members and >= 0 elsewhere. With gamma >= n it holds exactly
    at the maximal independent sets (the paper's theorem)."""
    grad = gradient(g, p, z)
    return not np.where(np.asarray(z) == 1.0, grad > 0.0, grad < 0.0).any()


def neighbor_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in g.edge_array().tolist():
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def mask_is_independent(mask: int, nbr: list[int]) -> bool:
    m = mask
    while m:
        v = (m & -m).bit_length() - 1
        if nbr[v] & mask:
            return False
        m &= m - 1
    return True


def mask_is_maximal(mask: int, nbr: list[int], n: int) -> bool:
    if not mask_is_independent(mask, nbr):
        return False
    for v in range(n):
        if not (mask >> v) & 1 and not (nbr[v] & mask):
            return False
    return True


def brute_max_sets(g: Graph) -> tuple[int, list[tuple[int, ...]]]:
    """Maximum size and every maximum set, by full sweep. n <= ~16."""
    nbr = neighbor_masks(g)
    best = 0
    sets: list[tuple[int, ...]] = []
    for mask in range(1 << g.n):
        if not mask_is_independent(mask, nbr):
            continue
        size = mask.bit_count()
        if size > best:
            best = size
            sets = []
        if size == best:
            sets.append(tuple(v for v in range(g.n) if (mask >> v) & 1))
    return best, sets


def brute_maximal_masks(g: Graph) -> set[int]:
    nbr = neighbor_masks(g)
    return {
        mask for mask in range(1 << g.n) if mask_is_maximal(mask, nbr, g.n)
    }


def random_graph(n: int, density: float, seed: int) -> Graph:
    """Direct Bernoulli graph used where tests must not lean on gen_er."""
    rng = np.random.default_rng(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return Graph.from_edge_list(n, edges)


@st.composite
def graph_inputs(draw, min_nodes: int = 2, max_nodes: int = 10):
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph.from_edge_list(n, picks)
