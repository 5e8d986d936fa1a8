import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmis import (
    DimensionError,
    Graph,
    gen_er,
    gen_gnm,
    InvalidGamma,
    ObjectiveParams,
    evaluate,
    gradient,
    resolve_config,
)
from quadmis.errors import InputError
from quadmis.objective import gradient_columns

from conftest import graph_inputs, reference_gradient, reference_objective


def test_params_validation():
    ObjectiveParams(1.5)
    ObjectiveParams(0.5, complement_term_enabled=False)
    with pytest.raises(InvalidGamma):
        ObjectiveParams(1.0)
    with pytest.raises(InvalidGamma):
        ObjectiveParams(0.0, complement_term_enabled=False)
    with pytest.raises(InvalidGamma):
        ObjectiveParams(-2.0)


def test_value_at_max_set(fig1):
    # indicator of a size-3 independent set: value is -3 - (1/2)*6 = -6
    # (three pairwise non-adjacent nodes, no edge term).
    x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert evaluate(fig1, ObjectiveParams(6.0), x) == pytest.approx(-6.0)


def test_value_complement_off(fig1):
    x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    assert evaluate(fig1, ObjectiveParams(6.0, complement_term_enabled=False), x) == pytest.approx(-3.0)


def test_gradient_frozen_values(fig1):
    x = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    grad = gradient(fig1, ObjectiveParams(6.0), x)
    # node 1 touches all three set members: -1 + 7*3 - 3 + 0 = 17
    assert grad[1] == pytest.approx(17.0)
    # set member 0: -1 + 0 - 3 + 1 = -3
    assert grad[0] == pytest.approx(-3.0)


def test_dimension_mismatch(fig1):
    with pytest.raises(DimensionError):
        evaluate(fig1, ObjectiveParams(2.0), np.zeros(4))
    with pytest.raises(DimensionError):
        gradient(fig1, ObjectiveParams(2.0), np.zeros(6))


@settings(max_examples=80, deadline=None)
@given(graph_inputs(), st.floats(min_value=1.01, max_value=50.0), st.booleans(), st.integers(0, 2**32 - 1))
def test_matches_dense_reference(g, gamma, comp, seed):
    p = ObjectiveParams(gamma, complement_term_enabled=comp)
    x = np.random.default_rng(seed).random(g.n)
    assert evaluate(g, p, x) == pytest.approx(reference_objective(g, p, x), rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(gradient(g, p, x), reference_gradient(g, p, x), rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(graph_inputs(), st.integers(0, 2**32 - 1))
def test_finite_differences(g, seed):
    p = ObjectiveParams(float(max(g.n, 2)))
    x = np.random.default_rng(seed).random(g.n)
    grad = gradient(g, p, x)
    h = 1e-6
    for v in range(g.n):
        e = np.zeros(g.n)
        e[v] = h
        fd = (evaluate(g, p, x + e) - evaluate(g, p, x - e)) / (2 * h)
        assert grad[v] == pytest.approx(fd, abs=1e-5)


@settings(max_examples=40, deadline=None)
@given(graph_inputs(), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_gradient_columns_matches_loop(g, k, seed):
    p = ObjectiveParams(float(g.n + 1))
    X = np.random.default_rng(seed).random((g.n, k))
    cols = gradient_columns(g, p, X)
    assert cols.shape == (g.n, k)
    # column sums reduce in a different association order than 1-d sums,
    # so agreement is to roundoff, not bitwise
    for j in range(k):
        np.testing.assert_allclose(cols[:, j], gradient(g, p, X[:, j]), rtol=1e-12, atol=1e-12)


def test_gradient_columns_width_invariant():
    # a column's gradient must not depend on the block around it: the
    # solver drops finished columns and relies on the same bits for the
    # rest, on the CSR backend and on the dense one (8m >= n^2)
    for g, backend in ((gen_er(700, 0.15, 0), "csr"), (gen_gnm(120, 3570, 2), "dense")):
        assert g.backend == backend
        X = np.random.default_rng(3).random((g.n, 32))
        for p in (ObjectiveParams(700.0), ObjectiveParams(700.0, complement_term_enabled=False)):
            full = gradient_columns(g, p, X)
            rng = np.random.default_rng(4)
            for width in range(1, 33):
                idx = np.sort(rng.choice(32, size=width, replace=False))
                fancy = X[:, idx]  # F-ordered for width > 1
                for sub in (fancy, np.ascontiguousarray(fancy), np.asfortranarray(fancy)):
                    got = gradient_columns(g, p, sub)
                    assert np.array_equal(got, full[:, idx]), (backend, width, sub.flags.c_contiguous)


def test_gamma_select_modes(fig1):
    assert resolve_config(fig1, gamma="strict-n").gamma == 5.0
    assert resolve_config(fig1, gamma=7.25).gamma == 7.25
    assert resolve_config(fig1, gamma=3).gamma == 3.0
    assert resolve_config(fig1, gamma=np.float32(5.0)).gamma == 5.0
    assert resolve_config(fig1, gamma=np.int64(5)).gamma == 5.0
    off = resolve_config(fig1, gamma="strict-n", complement_term_enabled=False)
    assert not off.complement_term_enabled
    assert resolve_config(fig1, gamma=0.5, complement_term_enabled=False).gamma == 0.5
    # below two nodes "strict-n" is 2, the least value above 1 that is >= n
    for n in (0, 1, 2):
        assert resolve_config(Graph.from_edge_list(n, [])).gamma == 2.0


def test_gamma_select_rejects_junk(fig1):
    with pytest.raises(InvalidGamma, match="'strict-n'"):
        resolve_config(fig1, gamma="biggest")
    with pytest.raises(InvalidGamma, match="'strict-n'"):
        resolve_config(fig1, gamma="wei-floor")
    with pytest.raises(InvalidGamma):
        resolve_config(fig1, gamma=float("inf"))
    with pytest.raises(InvalidGamma):
        resolve_config(fig1, gamma=1.0)
    # a bool is the wrong type, which SolverConfig rejects before any range check
    with pytest.raises(InputError, match="not a bool"):
        resolve_config(fig1, gamma=True)
