import numpy as np
import pytest

from quadmis import DegenerateDegreeMean, Graph, SolverConfig, degree_mean
from quadmis.errors import InputError
from quadmis.initialization import initial_mean, noise, sample_block


def test_start_settings_validation():
    # the start-point settings are SolverConfig's, and it checks them
    SolverConfig(gamma=5.0, init_scheme="random")
    SolverConfig(gamma=5.0, init_scheme="degree", eta=0.0)
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="fancy")
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="random", eta=-0.1)
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="random", seed=-1)
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="random", mean=np.full(3, 0.5))
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="external-mean")
    with pytest.raises(InputError):
        SolverConfig(gamma=5.0, init_scheme="external-mean", mean=np.array([0.2, 1.4]))


def test_degree_mean_frozen(fig1):
    np.testing.assert_allclose(degree_mean(fig1), [0.5, 0.0, 1.0, 1.0, 1.0])


def test_degree_mean_edgeless_warns():
    g = Graph.from_edge_list(3, [])
    with pytest.warns(DegenerateDegreeMean):
        m = degree_mean(g)
    np.testing.assert_array_equal(m, np.ones(3))


def test_degree_mean_regular_warns():
    # every node at max degree flattens the mean; fall back to 0.5
    g = Graph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.warns(DegenerateDegreeMean):
        m = degree_mean(g)
    np.testing.assert_array_equal(m, np.full(3, 0.5))


def test_random_draws_range_and_determinism():
    a = sample_block(10, None, 11, 0, 4).T
    b = sample_block(10, None, 11, 0, 4).T
    assert len(a) == 4
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
        assert x.shape == (10,)
        assert (x >= 0).all() and (x <= 1).all()
    # different draws differ
    assert not np.array_equal(a[0], a[1])


def test_draws_keyed_by_index_not_block():
    # splitting a batch into blocks must not change what draw k is
    whole = sample_block(6, None, 5, 0, 8)
    left = sample_block(6, None, 5, 0, 3)
    right = sample_block(6, None, 5, 3, 8)
    np.testing.assert_array_equal(whole, np.hstack([left, right]))


def test_gaussian_first_draw_is_mean(fig1):
    mean = degree_mean(fig1)
    draws = sample_block(mean.size, mean, 0, 0, 3, eta=2.25).T
    np.testing.assert_array_equal(draws[0], np.clip(mean, 0.0, 1.0))
    assert not np.array_equal(draws[1], draws[0])


def test_eta_zero_collapses_to_mean():
    # draw 0 is the mean itself; draws 1-3 add noise scaled by sqrt(0)
    mean = np.full(7, 0.25)
    for x in sample_block(mean.size, mean, 3, 0, 4, eta=0.0).T:
        np.testing.assert_array_equal(x, mean)


def test_eta_is_preclamp_variance():
    # before clamping the perturbation is mean + sqrt(eta) * standard
    # normal; check the sample variance against eta on a big draw
    eta = 2.25
    n = 200_000
    z = noise(n, seed=17, k=1)
    var = (np.sqrt(eta) * z).var()
    assert var == pytest.approx(eta, rel=0.05)


def test_clamped_into_box():
    mean = np.full(50, 0.5)
    for x in sample_block(mean.size, mean, 2, 0, 6, eta=9.0).T:
        assert (x >= 0).all() and (x <= 1).all()


def test_initial_mean_dispatch(fig1):
    assert initial_mean(fig1, "random", None) is None
    np.testing.assert_allclose(initial_mean(fig1, "degree", None), degree_mean(fig1))
    ext = SolverConfig(gamma=5.0, init_scheme="external-mean", mean=np.full(5, 0.125))
    np.testing.assert_array_equal(initial_mean(fig1, ext.init_scheme, ext.mean), np.full(5, 0.125))
