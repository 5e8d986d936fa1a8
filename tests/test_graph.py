import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmis.graph as graph_module
from quadmis import Graph, InvalidEdge, NodeSet, gen_er, gen_gnm, parse_dimacs
from quadmis.errors import InputError
from quadmis.graph import DENSE_PAD, KERNEL_DTYPE
from quadmis.optimizer import _one_blas_thread

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


def test_non_integer_endpoints_rejected():
    # the int64 cast would truncate these to edges 0-1 and 0-2
    for edges in (np.array([[0.5, 1.9]]), [(0.7, 2.2)], np.array([[np.nan, 1.0]]), [(float("nan"), 1)]):
        with pytest.raises(InvalidEdge, match="integers"):
            Graph.from_edge_list(3, edges)
    # integral floats keep their value, so they are endpoints like any other
    assert Graph.from_edge_list(3, np.array([[0.0, 2.0]])).edge_array().tolist() == [[0, 2]]


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list(-1, [])
    # the node count is an integer, not a float or a bool
    for n in (3.0, True):
        with pytest.raises(InputError):
            Graph.from_edge_list(n, [])


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


def test_adjacency_csr_is_read_only(fig1):
    # evaluate, gradient and the fast check multiply by it, so a write to
    # it must fail rather than change them
    a = fig1.adjacency_csr()
    for arr in (a.data, a.indices, a.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 2


@pytest.mark.parametrize("g", [gen_gnm(120, 3570, 2), Graph.from_edge_list(2, [(0, 1)])], ids=["gnm120", "one-edge"])
def test_dense_adjacency_is_the_csr_matrix(g):
    assert g.backend == "dense"
    A = g.adjacency()
    assert A.dtype == KERNEL_DTYPE and A.flags.c_contiguous and not A.flags.writeable
    assert np.array_equal(A, g.adjacency_csr().toarray())


def test_csr_adjacency_is_the_kernel_dtype_values():
    # the CSR backend's operator is the stored values, all ones, in the
    # kernel's dtype; building it builds no scipy matrix
    g = gen_er(60, 0.1, 1)
    assert g.backend == "csr"
    ones = g.adjacency()
    assert ones.dtype == KERNEL_DTYPE and ones.shape == g.indices.shape and not ones.flags.writeable
    assert (ones == 1.0).all() and g.adjacency() is ones
    assert g._csr is None


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
    # a C-ordered kernel-dtype block whose width is a multiple of DENSE_PAD
    # is its own padded copy, so BLAS gets it as it is and the bits are the
    # padded path's; any other block still goes through a zero-padded copy
    # in the kernel's dtype
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
    for k in (DENSE_PAD, 2 * DENSE_PAD):
        X = rng.random((g.n, k), dtype=KERNEL_DTYPE)
        got = g.kernel_product(X)
        assert operands[-1] is X
        assert got.dtype == KERNEL_DTYPE and got.flags.c_contiguous and np.array_equal(got, A @ X)
        for j in (0, k - 1):
            assert np.array_equal(got[:, j], g.kernel_product(X[:, [j]])[:, 0])
    X = rng.random((g.n, DENSE_PAD), dtype=KERNEL_DTYPE)
    for Y in (X > 0.5, np.asfortranarray(X), X[:, :5].copy(), X.astype(np.float64)):
        got = g.kernel_product(Y)
        operand = operands[-1]
        assert operand is not Y and operand.dtype == KERNEL_DTYPE and operand.flags.c_contiguous
        assert operand.shape[1] % DENSE_PAD == 0 and np.array_equal(operand[:, :Y.shape[1]], Y)
        assert not operand[:, Y.shape[1]:].any()
        assert np.array_equal(got, g.kernel_product(np.ascontiguousarray(Y, dtype=KERNEL_DTYPE)))


@pytest.mark.parametrize("n,m", [(50, 600), (120, 3570), (333, 27000), (800, 159800)])
def test_dense_kernel_product_is_width_invariant(n, m):
    # every column of a block of width 1-96 has the bytes of its width-1
    # product, at the first, middle and last place of the block; padded
    # to a multiple of 8 instead of DENSE_PAD, sgemm fails this on the
    # three smaller graphs. Products run on one BLAS thread, as in solve.
    g = gen_gnm(n, m, 1)
    assert g.backend == "dense"
    rng = np.random.default_rng(n)
    pool = np.clip(rng.normal(0.3, 0.5, (n, 96)), 0.0, 1.0).astype(KERNEL_DTYPE)
    with _one_blas_thread():
        single = [g.kernel_product(pool[:, [j]])[:, 0].tobytes() for j in range(96)]
        for k in range(1, 97):
            for shift in (0, 96 - k):  # the block's columns come from both ends of the pool
                got = g.kernel_product(pool[:, shift:shift + k])
                assert got.dtype == KERNEL_DTYPE
                for j in {0, k // 2, k - 1}:
                    assert got[:, j].tobytes() == single[shift + j], (k, shift, j)


@pytest.mark.parametrize("cut_off", [0, graph_module.SCATTER_MIN_WORK], ids=["scattered", "whole"])
def test_csr_kernel_product_is_the_kernel_dtype_csr_product(monkeypatch, scattered, cut_off):
    # the CSR kernel product has the bits of csr.dot with the matrix in the
    # kernel's dtype, scattered or whole, and each column those of its
    # width-1 product; a block of another dtype is cast to the kernel's
    monkeypatch.setattr(graph_module, "SCATTER_MIN_WORK", cut_off)
    g = _with_isolated_nodes()
    csr = g.adjacency_csr().astype(KERNEL_DTYPE)
    X = np.clip(_half_zero_rows(np.random.default_rng(3), g.n, 32, boolean=False), 0.0, 1.0)
    X32 = X.astype(KERNEL_DTYPE)
    for Y in (X32, X, X > 0.5):
        assert _bits(g.kernel_product(Y)) == _bits(csr.dot(Y.astype(KERNEL_DTYPE))), Y.dtype
    got = g.kernel_product(X32)
    for j in (0, 16, 31):
        assert _bits(got[:, j].copy()) == _bits(g.kernel_product(X32[:, [j]])[:, 0].copy())
    assert bool(scattered) == (cut_off == 0)


def test_float64_product_takes_the_csr_loops_on_either_backend():
    # the float64 product of the checks has csr.dot's bits on a dense-backend
    # graph too, and builds no kernel operator
    g = gen_gnm(120, 3570, 2)
    assert g.backend == "dense"
    X = np.random.default_rng(1).random((g.n, 9))
    got = g.adjacency_product(X)
    assert g._operator is None
    assert _bits(got) == _bits(g.adjacency_csr().dot(X))


def _bits(a):
    return a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()


@pytest.fixture
def scattered(monkeypatch):
    """Row counts of the products that took the scatter path."""
    calls = []
    scatter = graph_module._scatter_product

    def spy(*args):  # (indptr, indices, data, X, rows)
        calls.append(args[-1].size)
        return scatter(*args)

    monkeypatch.setattr(graph_module, "_scatter_product", spy)
    return calls


def _kernel_csr_product(g, X):
    """csr.dot with the matrix and X in the kernel's dtype: the bits the
    kernel's CSR product must have."""
    return g.adjacency_csr().astype(KERNEL_DTYPE).dot(X.astype(KERNEL_DTYPE))


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
    got = g.kernel_product(X)
    assert scattered == [np.count_nonzero(X.any(axis=1))] and scattered[0] <= g.n // 2
    assert _bits(got) == _bits(_kernel_csr_product(g, X))
    if not boolean:
        assert np.isnan(got).any() and np.isinf(got).any()
    for j in {0, k // 2, k - 1}:  # each column as a product of its own
        assert _bits(got[:, j].copy()) == _bits(g.kernel_product(X[:, [j]])[:, 0].copy())


@pytest.mark.parametrize("fill", [0.0, -0.0, None], ids=["zeros", "negative-zeros", "no-zero-row"])
@pytest.mark.parametrize("k", [0, 1, 5, 32])
def test_scatter_product_edge_blocks(monkeypatch, scattered, fill, k):
    monkeypatch.setattr(graph_module, "SCATTER_MIN_WORK", 0)
    g = _with_isolated_nodes()
    if fill is None:
        X = np.random.default_rng(k).random((g.n, k)) + 0.5
    else:
        X = np.full((g.n, k), fill)
    want = _kernel_csr_product(g, X)
    assert _bits(g.kernel_product(X)) == _bits(want)
    # a block with no zero row is taken whole; every other one is scattered
    assert scattered == ([] if fill is None and k else [0])
    ones = np.ones(g.indices.size, dtype=KERNEL_DTYPE)
    X32 = X.astype(KERNEL_DTYPE)
    assert _bits(graph_module._scatter_product(g.indptr, g.indices, ones, X32, np.arange(g.n))) == _bits(want)
    if fill is not None:
        assert not np.signbit(want).any()


@pytest.mark.parametrize("graph", ["isolated", "empty"])
def test_whole_csr_product_is_csr_dot_bit_for_bit(scattered, graph):
    # the blocks a whole CSR product must take as csr.dot does: float64 in
    # C and F order, a non-contiguous column slice, width 1, bool, float32
    # and int64 blocks, and width 0
    g = _with_isolated_nodes() if graph == "isolated" else Graph.from_edge_list(0, [])
    assert g.backend == "csr"
    X = _half_zero_rows(np.random.default_rng(7), g.n, 9, boolean=False) if g.n else np.zeros((0, 9))
    blocks = {
        "c-order": X,
        "f-order": np.asfortranarray(X),
        "column-slice": X[:, 2:7],
        "width-1": X[:, [3]],
        "bool": X > 0.2,
        "float32": (X * 3.3).astype(np.float32),
        "int64": np.nan_to_num(X * 1e6, posinf=7, neginf=-7).astype(np.int64),
        "width-0": X[:, :0],
    }
    if g.n:  # an empty block counts as contiguous
        assert not blocks["column-slice"].flags.c_contiguous and not blocks["column-slice"].flags.f_contiguous
    for name, Y in blocks.items():
        before = Y.copy()
        assert _bits(g.adjacency_product(Y)) == _bits(g.adjacency_csr().dot(Y)), name
        assert np.array_equal(Y, before, equal_nan=Y.dtype.kind == "f"), name
    assert scattered == []


@pytest.mark.parametrize("g", [gen_er(60, 0.1, 1), gen_gnm(30, 200, 5)], ids=["csr", "dense"])
def test_adjacency_product_rejects_a_block_of_other_height(g):
    for rows in (g.n - 1, g.n + 1, 0):
        for product in (g.adjacency_product, g.kernel_product):
            with pytest.raises(ValueError, match="rows for a graph of"):
                product(np.ones((rows, 3)))


def test_scatter_cut_offs(scattered):
    # at the shipped cut-offs a clipped 32-wide block of G(700, 0.15) is
    # scattered; a narrow block, a block with no zero row, a sparse
    # graph and a dense-backend graph are multiplied whole
    rng = np.random.default_rng(0)
    er = gen_er(700, 0.15, 1)
    X = np.clip(rng.normal(0.0, 1.0, (er.n, 32)), 0.0, 1.0)
    X[rng.random(er.n) < 0.5] = 0.0
    assert _bits(er.kernel_product(X)) == _bits(_kernel_csr_product(er, X))
    assert scattered == [np.count_nonzero(X.any(axis=1))]
    assert er.indices.size * 8 < graph_module.SCATTER_MIN_WORK
    er.kernel_product(X[:, :8])
    er.kernel_product(X + 1.0)
    sparse_graph = gen_er(1290, 0.0065, 1)
    sparse_graph.kernel_product(np.zeros((sparse_graph.n, 32)))
    gnm = gen_gnm(120, 3570, 2)
    assert gnm.backend == "dense"
    gnm.kernel_product(np.zeros((gnm.n, 32)))
    assert len(scattered) == 1
