import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadmis.graph as graph_module
import quadmis.optimizer as opt
from quadmis import (
    ContractViolation,
    DimensionError,
    Graph,
    ObjectiveParams,
    direct_mis_check,
    fast_mis_check,
    gen_er,
    gen_gnm,
)
from quadmis.checker import fast_mis_check_batch
from quadmis.graph import KERNEL_DTYPE
from quadmis.initialization import degree_mean, sample_block

from conftest import brute_maximal_masks, graph_inputs, sign_test


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


def _iterates(g, rng, k):
    """k columns X >= 0 in the kernel's dtype whose supports are maximal
    independent sets, those sets with a node added or removed, or random;
    entries are exact zeros, -0.0, the smallest subnormal, 1.0 or uniform,
    and column 0 is zero."""
    tiny = np.finfo(KERNEL_DTYPE).smallest_subnormal
    X = np.zeros((g.n, k), dtype=KERNEL_DTYPE)
    for j in range(1, k):
        kind = j % 4
        if kind == 3:
            z = rng.random(g.n) < 0.3
        else:
            z = np.zeros(g.n, dtype=bool)
            for v in rng.permutation(g.n):  # greedy maximal independent set
                if not z[g.neighbors(v)].any():
                    z[v] = True
            if kind == 1 and not z.all():
                z[rng.choice(np.flatnonzero(~z))] = True  # not independent
            elif kind == 2:
                z[rng.choice(np.flatnonzero(z))] = False  # not maximal
        values = rng.choice([tiny, 1.0, 0.5], size=g.n).astype(KERNEL_DTYPE)
        values[values == 0.5] = rng.random(int((values == 0.5).sum()), dtype=KERNEL_DTYPE) + tiny
        X[:, j] = np.where(z, values, rng.choice([0.0, -0.0], size=g.n))
    return X


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "csr"])
@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=60), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_check_reads_the_verdict_off_the_iterate_product(dense, n, density, seed):
    # the kernel passes its own A·X in place of A·Z: with X >= 0 and
    # Z = X > 0 the two have the same zero pattern, on both product
    # backends, subnormal entries of X included
    rng = np.random.default_rng(seed)
    isolated = int(rng.integers(0, n // 4 + 1))  # the last nodes get no edges
    pairs = [(u, v) for u in range(n - isolated) for v in range(u + 1, n - isolated)]
    edges = [e for e, keep in zip(pairs, rng.random(len(pairs)) < density) if keep]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_dense_adjacency", lambda n, m: dense)
        g = Graph.from_edge_list(n, edges)
    assert g.backend == ("dense" if dense else "csr")
    X = _iterates(g, rng, 12)
    Z = X > 0.0
    got = fast_mis_check_batch(g, Z, g.kernel_product(X))
    assert np.array_equal(got, fast_mis_check_batch(g, Z))
    assert got.tolist() == [direct_mis_check(g, Z[:, j].astype(np.float64)) for j in range(Z.shape[1])]


def _planted_sat_graph(variables, clauses, seed):
    """Literal-occurrence graph of a random 3-SAT formula that a planted
    assignment satisfies, the shape of SATLIB's uf instances: node 3c + j
    is literal j of clause c, each clause is a triangle, and every two
    occurrences of complementary literals are joined."""
    rng = np.random.default_rng(seed)
    truth = rng.random(variables) < 0.5
    var, pos = [], []
    while len(var) < clauses:
        v = rng.choice(variables, size=3, replace=False)
        s = rng.random(3) < 0.5
        if (s == truth[v]).any():
            var.append(v)
            pos.append(s)
    var, pos = np.concatenate(var), np.concatenate(pos)
    clause_edges = [(3 * c + a, 3 * c + b) for c in range(clauses) for a, b in ((0, 1), (0, 2), (1, 2))]
    u, v = np.nonzero(np.triu((var[:, None] == var[None, :]) & (pos[:, None] != pos[None, :])))
    return Graph.from_edge_list(3 * clauses, np.concatenate([clause_edges, np.stack([u, v], axis=1)]))


SAT = _planted_sat_graph(100, 430, 0)

CERTIFICATE_CASES = [
    # (name, graph, gamma, iterations, alpha): the er and satlib presets'
    # steps and starts, at gamma = n and at their gamma of 775
    ("er200-n", gen_er(200, 0.1, 21), 200.0, 150, 0.6),
    ("er200-775", gen_er(200, 0.1, 21), 775.0, 150, 0.6),
    ("er700-n", gen_er(700, 0.15, 22), 700.0, 150, 0.6),
    ("er700-775", gen_er(700, 0.15, 22), 775.0, 150, 0.6),
    ("sat-n", SAT, float(SAT.n), 50, 0.9),
    ("sat-775", SAT, 775.0, 50, 0.9),
    ("dense-gnm-n", gen_gnm(120, 3570, 3), 120.0, 350, 0.5),
]


@pytest.mark.parametrize("name,g,gamma,iterations,alpha", CERTIFICATE_CASES, ids=[c[0] for c in CERTIFICATE_CASES])
def test_kernel_certificate_is_exact_in_its_dtype(monkeypatch, name, g, gamma, iterations, alpha):
    # every verdict the kernel reads off its own product P = A·X, in its
    # dtype, is the float64 check's on Z, and every set it reports is a
    # maximal independent set by the neighbourhood walk
    check = opt.checker.fast_mis_check_batch
    certified = []

    def checking(g, Z, counts=None):
        assert counts is not None and counts.dtype == KERNEL_DTYPE
        ok = check(g, Z, counts)
        assert np.array_equal(ok, check(g, Z.astype(np.float64)))
        certified.append(int(np.count_nonzero(ok)))
        return ok

    monkeypatch.setattr(opt.checker, "fast_mis_check_batch", checking)
    mean = degree_mean(g) if name.startswith("sat") else None
    X = sample_block(g.n, mean, len(name), 0, opt.CHUNK, 2.25)
    found, failures, _ = opt._run_block(g, ObjectiveParams(gamma), X, 0, iterations, alpha)
    sets = [item[1] for item in found if item is not None]
    assert failures == 0 and sets and len(sets) == sum(certified)
    for members in sets:
        z = np.zeros(g.n)
        z[list(members)] = 1.0
        assert direct_mis_check(g, z)
