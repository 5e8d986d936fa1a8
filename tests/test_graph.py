import numpy as np
import pytest
from hypothesis import given, settings

from quadmis import Graph, InvalidEdge, NodeSet

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
