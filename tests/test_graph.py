import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmis.graph as graph_module
from quadmis import Graph, InvalidEdge, NodeSet, gen_er, gen_gnm, parse_dimacs

from conftest import dense_adjacency, graph_inputs


def test_from_edge_list_basic(fig1):
    assert fig1.n == 5
    assert fig1.m == 4
    assert fig1.edge_array().tolist() == [[0, 1], [0, 2], [1, 3], [1, 4]]


def test_duplicate_and_reversed_edges_collapse():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (0, 1), (2, 1)])
    assert g.m == 2
    assert g.edge_array().tolist() == [[0, 1], [1, 2]]


def test_neighbors_sorted(fig1):
    assert list(fig1.neighbors(1)) == [0, 3, 4]
    assert list(fig1.neighbors(3)) == [1]
    assert list(fig1.neighbors(0)) == [1, 2]


def test_degrees(fig1):
    assert fig1.degrees.tolist() == [2, 3, 1, 1, 1]
    assert fig1.max_degree == 3


def test_self_loop_rejected():
    with pytest.raises(InvalidEdge):
        Graph.from_edge_list(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(InvalidEdge):
        Graph.from_edge_list(3, [(0, 3)])
    with pytest.raises(InvalidEdge):
        Graph.from_edge_list(3, [(-1, 2)])


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list(-1, [])


def test_node_count_beyond_int32_rejected():
    # raised before anything n-sized is allocated
    with pytest.raises(InvalidEdge):
        Graph.from_edge_list(2**31, [])
    with pytest.raises(InvalidEdge):
        Graph.from_edge_list(2**31, [(0, 1)])


def test_empty_graph():
    g = Graph.from_edge_list(4, [])
    assert g.m == 0
    assert g.max_degree == 0
    assert g.is_independent(NodeSet.of(range(4)))


def test_independence(fig1):
    assert fig1.is_independent(NodeSet.of([0, 3, 4]))
    assert fig1.is_independent(NodeSet.of([2, 3, 4]))
    assert not fig1.is_independent(NodeSet.of([0, 1]))
    assert fig1.is_independent(NodeSet.of([]))


def test_maximality(fig1):
    assert fig1.is_maximal_independent(NodeSet.of([0, 3, 4]))
    assert fig1.is_maximal_independent(NodeSet.of([1, 2]))
    # {3, 4} extends by 0 or 2
    assert not fig1.is_maximal_independent(NodeSet.of([3, 4]))
    assert not fig1.is_maximal_independent(NodeSet.of([0, 1]))


def test_nodeset_of_sorts_and_dedups():
    s = NodeSet.of([4, 0, 4, 3])
    assert s.members == (0, 3, 4)
    assert s.size == 3
    assert 3 in s and 1 not in s


def test_nodeset_rejects_disorder():
    with pytest.raises(ValueError):
        NodeSet((3, 0))
    with pytest.raises(ValueError):
        NodeSet((0, 0))
    with pytest.raises(ValueError):
        NodeSet((-1, 2))


def test_edge_array_round_trip(fig1):
    arr = fig1.edge_array()
    g2 = Graph.from_edge_list(fig1.n, arr)
    assert g2 == fig1


def test_adjacency_csr(fig1):
    a = fig1.adjacency_csr()
    assert a.shape == (5, 5)
    dense = a.toarray()
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_array_equal(dense, dense_adjacency(fig1))
    # cached object is reused
    assert fig1.adjacency_csr() is a


def test_ndarray_input():
    edges = np.array([[0, 1], [2, 3]])
    g = Graph.from_edge_list(4, edges)
    assert g.m == 2


@settings(max_examples=60, deadline=None)
@given(graph_inputs())
def test_degree_sums_to_twice_edges(g):
    assert int(g.degrees.sum()) == 2 * g.m


@settings(max_examples=60, deadline=None)
@given(graph_inputs())
def test_neighbors_symmetric(g):
    for u, v in g.edge_array():
        assert u in g.neighbors(v)
        assert v in g.neighbors(u)


@st.composite
def edge_lists(draw):
    """(n, edges): random pairs, with repeats and mirrored copies of some of
    them, in shuffled order."""
    n = draw(st.integers(min_value=0, max_value=30))
    if n < 2:
        return n, []
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=3 * n))
    mirrored = [(v, u) for u, v in draw(st.lists(st.sampled_from(pairs), max_size=n))] if pairs else []
    return n, draw(st.permutations(pairs + pairs[: len(pairs) // 2] + mirrored))


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_csr_matches_dense_reference(case):
    n, edges = case
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    _, cols = np.nonzero(a)
    indptr = np.concatenate([[0], np.cumsum(a.sum(axis=1))]).astype(np.int32)
    for given_edges in (edges, np.array(edges, dtype=np.int64), np.array(edges, dtype=np.int32)):
        g = Graph.from_edge_list(n, given_edges)
        assert g.indptr.dtype == np.int32 and g.indices.dtype == np.int32
        np.testing.assert_array_equal(g.indptr, indptr)
        np.testing.assert_array_equal(g.indices, cols.astype(np.int32))


REPEATED_DIMACS = """c repeated and mirrored records
p edge 7 10
e 1 2
e 2 1
e 3 7
e 7 3
e 1 2
e 5 4
e 6 1
e 4 5
e 2 7
e 6 1
"""


@pytest.mark.parametrize("build, digest", [
    (lambda: gen_er(700, 0.15, 1000), "3f5d31136b842a1e4e64a75118a3743488d87c48e3ba18284e78f594be578beb"),
    (lambda: gen_gnm(800, 159800, 1000), "dfc8d8a03bde97f90ff2881bbd5a199fddf525e5b3e8011ddb4bf604637efd17"),
    (lambda: gen_gnm(100, 2475, 1000), "ac5029a4e30e1010bf0d56dabde9b984f8c543800325aab608fa6072d2fc4a6d"),
    (lambda: parse_dimacs(REPEATED_DIMACS), "c5c6419589f8033e247fdc00296a1583e98220e053364ab0e9ee220fea8e0bba"),
], ids=["er700", "gnm800", "gnm100", "dimacs"])
def test_graphs_are_frozen(build, digest):
    """The benchmark checks the solver's sets on its own copies of these
    graphs, so generated and parsed graphs must not drift."""
    edges = build().edge_array()
    assert hashlib.sha256(edges.tobytes()).hexdigest() == digest


def test_dense_product_skips_the_padded_copy_only_where_it_is_the_input(monkeypatch):
    # a C-ordered float64 block whose width is a multiple of 8 is its own
    # padded copy, so BLAS gets it as it is and the bits are the padded
    # path's; any other block still goes through a zero-padded copy
    g = gen_gnm(120, 3570, 2)
    assert g.backend == "dense"
    A = g.adjacency()
    operands = []

    class Recording:
        def __matmul__(self, Y):
            operands.append(Y)
            return A @ Y

    monkeypatch.setattr(Graph, "adjacency", lambda self: Recording())
    rng = np.random.default_rng(0)
    for k in (8, 16, 32):
        X = rng.random((g.n, k))
        padded = np.zeros((g.n, k))
        padded[:, :k] = X
        got = g.adjacency_product(X)
        assert operands[-1] is X
        assert got.flags.c_contiguous and np.array_equal(got, A @ padded)
        for j in (0, k - 1):
            assert np.array_equal(got[:, j], g.adjacency_product(X[:, [j]])[:, 0])
    X = rng.random((g.n, 8))
    for Y in (X > 0.5, np.asfortranarray(X), X[:, :5].copy()):
        got = g.adjacency_product(Y)
        operand = operands[-1]
        assert operand is not Y and operand.dtype == np.float64 and operand.flags.c_contiguous
        assert operand.shape[1] % 8 == 0 and np.array_equal(operand[:, :Y.shape[1]], Y)
        assert not operand[:, Y.shape[1]:].any()
        assert np.array_equal(got, g.adjacency_product(np.ascontiguousarray(Y, dtype=np.float64)))


def _bits(a):
    return a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()


@pytest.fixture
def scattered(monkeypatch):
    """Row counts of the products that took the scatter path."""
    calls = []
    scatter = graph_module._scatter_product

    def spy(csr, X, rows):
        calls.append(rows.size)
        return scatter(csr, X, rows)

    monkeypatch.setattr(graph_module, "_scatter_product", spy)
    return calls


def _with_isolated_nodes():
    """G(120, 0.2) with 10 isolated nodes appended."""
    return Graph.from_edge_list(130, gen_er(120, 0.2, 5).edge_array())


def _half_zero_rows(rng, n, k, boolean):
    """An (n, k) block whose even rows are random, with zeros of both signs,
    NaN and inf among them, and whose odd rows are all +0.0, all -0.0 or a
    mix of the two."""
    if boolean:
        X = rng.random((n, k)) < 0.3
        X[1::2] = False
        return X
    X = rng.uniform(-1.0, 1.0, (n, k))
    X[rng.random((n, k)) < 0.6] = 0.0
    X[rng.random((n, k)) < 0.1] = -0.0
    X[1::2] = 0.0
    X[1::6] = -0.0
    X[3::10, ::2] = -0.0
    X[4, 0], X[8, -1], X[10, k // 2] = np.nan, np.inf, -np.inf
    return X


@pytest.mark.parametrize("boolean", [False, True], ids=["float", "bool"])
@pytest.mark.parametrize("k", range(1, 34))
def test_scatter_product_is_the_csr_product_bit_for_bit(monkeypatch, scattered, k, boolean):
    # cut-off lowered so that every width takes the scatter path
    monkeypatch.setattr(graph_module, "SCATTER_MIN_WORK", 0)
    g = _with_isolated_nodes()
    X = _half_zero_rows(np.random.default_rng(k), g.n, k, boolean)
    got = g.adjacency_product(X)
    assert scattered == [np.count_nonzero(X.any(axis=1))] and scattered[0] <= g.n // 2
    assert _bits(got) == _bits(g.adjacency_csr().dot(X))
    if not boolean:
        assert np.isnan(got).any() and np.isinf(got).any()
    for j in {0, k // 2, k - 1}:  # each column as a product of its own
        assert _bits(got[:, j].copy()) == _bits(g.adjacency_product(X[:, [j]])[:, 0].copy())


@pytest.mark.parametrize("fill", [0.0, -0.0, None], ids=["zeros", "negative-zeros", "no-zero-row"])
@pytest.mark.parametrize("k", [0, 1, 5, 32])
def test_scatter_product_edge_blocks(monkeypatch, scattered, fill, k):
    monkeypatch.setattr(graph_module, "SCATTER_MIN_WORK", 0)
    g = _with_isolated_nodes()
    if fill is None:
        X = np.random.default_rng(k).random((g.n, k)) + 0.5
    else:
        X = np.full((g.n, k), fill)
    want = g.adjacency_csr().dot(X)
    assert _bits(g.adjacency_product(X)) == _bits(want)
    # a block with no zero row is taken whole; every other one is scattered
    assert scattered == ([] if fill is None and k else [0])
    assert _bits(graph_module._scatter_product(g.adjacency_csr(), X, np.arange(g.n))) == _bits(want)
    if fill is not None:
        assert not np.signbit(want).any()


def test_scatter_cut_offs(scattered):
    # at the shipped cut-offs a clipped 32-wide block of G(700, 0.15) is
    # scattered; a narrow block, a block with no zero row, a sparse
    # graph and a dense-backend graph are multiplied whole
    rng = np.random.default_rng(0)
    er = gen_er(700, 0.15, 1)
    X = np.clip(rng.normal(0.0, 1.0, (er.n, 32)), 0.0, 1.0)
    X[rng.random(er.n) < 0.5] = 0.0
    assert _bits(er.adjacency_product(X)) == _bits(er.adjacency_csr().dot(X))
    assert scattered == [np.count_nonzero(X.any(axis=1))]
    assert er.indices.size * 8 < graph_module.SCATTER_MIN_WORK
    er.adjacency_product(X[:, :8])
    er.adjacency_product(X + 1.0)
    sparse_graph = gen_er(1290, 0.0065, 1)
    sparse_graph.adjacency_product(np.zeros((sparse_graph.n, 32)))
    gnm = gen_gnm(120, 3570, 2)
    assert gnm.backend == "dense"
    gnm.adjacency_product(np.zeros((gnm.n, 32)))
    assert len(scattered) == 1
