import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmis import ContractViolation, DimensionError, Graph, ObjectiveParams, direct_mis_check, fast_mis_check, support, threshold
from quadmis.checker import fast_mis_check_batch

from conftest import brute_maximal_masks, graph_inputs, sign_test


def test_threshold_strictly_positive():
    x = np.array([1e-300, 0.0, -0.0, 0.7, 1.0])
    np.testing.assert_array_equal(threshold(x), [1.0, 0.0, 0.0, 1.0, 1.0])


def test_known_sets(fig1):
    for members in ([0, 3, 4], [2, 3, 4], [1, 2]):
        z = np.zeros(5)
        z[members] = 1.0
        assert fast_mis_check(fig1, z)
        assert direct_mis_check(fig1, z)
    # {3,4} is independent but not maximal
    z = np.zeros(5)
    z[[3, 4]] = 1.0
    assert not fast_mis_check(fig1, z)
    assert not direct_mis_check(fig1, z)


def test_adjacent_pair_rejected():
    tri = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    z = np.array([1.0, 1.0, 0.0])
    assert not fast_mis_check(tri, z)
    assert not direct_mis_check(tri, z)


def test_nonbinary_rejected(fig1):
    with pytest.raises(ContractViolation):
        fast_mis_check(fig1, np.full(5, 0.5))
    with pytest.raises(ContractViolation):
        direct_mis_check(fig1, np.full(5, 0.5))


def test_wrong_shape_rejected(fig1):
    with pytest.raises(DimensionError):
        fast_mis_check(fig1, np.ones(4))
    with pytest.raises(DimensionError):
        fast_mis_check(fig1, np.ones((5, 1)))


def test_support(fig1):
    z = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert support(z).members == (0, 3, 4)


@settings(max_examples=120, deadline=None)
@given(graph_inputs(max_nodes=8), st.integers(min_value=0, max_value=255))
def test_fast_equals_direct_at_gamma_n(g, bits):
    # with gamma >= n the gradient's sign test certifies exactly the maximal
    # independent sets, which both checks read off the graph directly
    mask = bits & ((1 << g.n) - 1)
    z = np.array([(mask >> v) & 1 for v in range(g.n)], dtype=np.float64)
    p = ObjectiveParams(float(max(g.n, 2)))
    want = mask in brute_maximal_masks(g)
    assert sign_test(g, p, z) == want
    assert direct_mis_check(g, z) == want
    assert fast_mis_check(g, z) == want


def test_batch_matches_scalar(fig1):
    rng = np.random.default_rng(0)
    Z = (rng.random((5, 40)) < 0.4).astype(np.float64)
    got = fast_mis_check_batch(fig1, Z)
    for j in range(Z.shape[1]):
        assert got[j] == fast_mis_check(fig1, Z[:, j])
