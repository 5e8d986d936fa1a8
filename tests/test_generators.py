import numpy as np
import pytest

from quadmis import InvalidEdgeCount, gen_er, gen_gnm, gnm_edge_count
from quadmis.errors import InputError


def test_er_deterministic():
    a = gen_er(80, 0.2, seed=4)
    b = gen_er(80, 0.2, seed=4)
    assert a == b
    assert a != gen_er(80, 0.2, seed=5)


def test_er_density():
    n, p = 200, 0.3
    expected = p * n * (n - 1) / 2
    ms = [gen_er(n, p, seed).m for seed in range(10)]
    assert np.mean(ms) == pytest.approx(expected, rel=0.03)


def test_er_degenerate_probabilities():
    assert gen_er(20, 0.0, 0).m == 0
    g = gen_er(20, 1.0, 0)
    assert g.m == 20 * 19 // 2


def test_er_rejects_bad_p():
    with pytest.raises(ValueError):
        gen_er(10, -0.1, 0)
    with pytest.raises(ValueError):
        gen_er(10, 1.5, 0)
    with pytest.raises(InputError):
        gen_er(-5, 0.1, 0)


def test_gnm_edge_count_quarter_density():
    # ceil(n(n-1)/4)
    assert gnm_edge_count(50) == 613
    assert gnm_edge_count(100) == 2475
    assert gnm_edge_count(500) == 62375
    assert gnm_edge_count(2) == 1


def test_gnm_exact_count_no_duplicates():
    # from_edge_list collapses duplicates, so m == requested proves the
    # sample was duplicate-free
    for seed in range(5):
        g = gen_gnm(40, 390, seed)
        assert g.n == 40
        assert g.m == 390


def test_gnm_deterministic():
    assert gen_gnm(50, 613, 1) == gen_gnm(50, 613, 1)
    assert gen_gnm(50, 613, 1) != gen_gnm(50, 613, 2)


def test_gnm_extremes():
    assert gen_gnm(6, 0, 0).m == 0
    full = gen_gnm(6, 15, 0)
    assert full.m == 15
    assert all(full.degree(v) == 5 for v in range(6))


def test_gnm_rejects_bad_m():
    with pytest.raises(InvalidEdgeCount):
        gen_gnm(6, 16, 0)
    with pytest.raises(InvalidEdgeCount):
        gen_gnm(6, -1, 0)
    with pytest.raises(InputError):
        gen_gnm(-3, 3, 0)
