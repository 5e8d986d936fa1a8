import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import quadmis.optimizer as opt
from quadmis import (
    AdamState,
    Graph,
    NumericalError,
    ObjectiveParams,
    SolverConfig,
    adam_step,
    gen_er,
    gen_gnm,
    run_resampling,
    run_single,
    solve,
)


def _frozen_gradient_columns(g, p, X):
    AX = g.adjacency_csr().dot(X)
    if p.complement_term_enabled:
        return (p.gamma + 1.0) * AX - X.sum(axis=0) + X - 1.0
    return p.gamma * AX - 1.0


def _frozen_run_block(g, p, X, start, iterations, alpha, grad=_frozen_gradient_columns):
    """The full-width kernel the live-column one replaced, kept as the
    reference: every column is updated and checked on every iteration."""
    width = X.shape[1]
    M1 = np.zeros_like(X)
    M2 = np.zeros_like(X)
    pending = np.ones(width, dtype=bool)
    found = [None] * width
    failures = 0
    for t in range(1, iterations + 1):
        G = grad(g, p, X)
        finite = np.isfinite(G).all(axis=0)
        if not finite.all():
            failures += int((pending & ~finite).sum())
            pending &= finite
            if not pending.any():
                break
            G = np.where(finite, G, 0.0)
        M1 = opt.BETA1 * M1 + (1.0 - opt.BETA1) * G
        M2 = opt.BETA2 * M2 + (1.0 - opt.BETA2) * G * G
        mhat = M1 / (1.0 - opt.BETA1**t)
        vhat = M2 / (1.0 - opt.BETA2**t)
        X = np.clip(X - alpha * mhat / (np.sqrt(vhat) + opt.EPS), 0.0, 1.0)
        Z = (X > 0.0).astype(np.float64)
        AZ = _frozen_gradient_columns(g, p, Z)
        ok = ~np.where(Z == 1.0, AZ > 0.0, AZ < 0.0).any(axis=0) & pending
        if ok.any():
            for c in np.flatnonzero(ok):
                found[c] = (start + int(c), tuple(int(v) for v in np.flatnonzero(Z[:, c])), t)
            pending &= ~ok
            if not pending.any():
                break
    return found, failures, width


def _poisoned(grad, at_call):
    # at the given call, columns whose bytes have an odd CRC go non-finite;
    # a function of the column alone, so both kernels poison the same runs
    # at the same iteration
    calls = [0]

    def poisoned(g, p, X):
        calls[0] += 1
        G = grad(g, p, X)
        if calls[0] == at_call:
            for j in range(X.shape[1]):
                if zlib.crc32(np.ascontiguousarray(X[:, j]).tobytes()) % 2:
                    G[:, j] = np.nan
        return G

    return poisoned


KERNEL_CASES = [
    # (name, graph, params, width, iterations, alpha)
    ("er", gen_er(200, 0.1, 1), ObjectiveParams(200.0), opt.CHUNK, 150, 0.6),
    ("dense-gnm", gen_gnm(120, 3570, 2), ObjectiveParams(120.0), opt.CHUNK, 350, 0.5),
    ("sparse", gen_er(400, 0.01, 3), ObjectiveParams(775.0), opt.CHUNK, 50, 0.9),
    ("partial", gen_er(200, 0.1, 4), ObjectiveParams(200.0), 7, 150, 0.6),
    ("no-complement", gen_er(150, 0.1, 5), ObjectiveParams(1.5, False), opt.CHUNK, 200, 0.5),
]


@pytest.mark.parametrize("name,g,p,width,iterations,alpha", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_matches_full_width_reference(name, g, p, width, iterations, alpha):
    X = np.random.default_rng(width).random((g.n, width))
    before = X.copy()
    got = opt._run_block(g, p, X, 64, iterations, alpha)
    assert np.array_equal(X, before)  # input untouched
    assert got == _frozen_run_block(g, p, X, 64, iterations, alpha)
    assert any(item is not None for item in got[0])


def test_kernel_matches_reference_with_partial_poison(monkeypatch):
    g = gen_er(200, 0.1, 1)
    p = ObjectiveParams(200.0)
    X = np.random.default_rng(0).random((g.n, opt.CHUNK))
    want = _frozen_run_block(g, p, X, 0, 150, 0.6, grad=_poisoned(_frozen_gradient_columns, 80))
    monkeypatch.setattr(opt, "gradient_columns", _poisoned(opt.gradient_columns, 80))
    got = opt._run_block(g, p, X, 0, 150, 0.6)
    assert got == want
    found, failures, width = got
    certified = sum(item is not None for item in found)
    assert 0 < failures < width and certified > 0


def complete_graph(n):
    return Graph.from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_adam_monotone_on_single_node():
    # lone node, constant gradient -1: iterates climb to 1 and stay
    g = Graph.from_edge_list(1, [])
    p = ObjectiveParams(2.0)
    st = AdamState.fresh(1)
    x = np.array([0.0])
    seen = [x[0]]
    for _ in range(10):
        x = adam_step(g, p, x, st, alpha=0.3)
        seen.append(x[0])
    assert all(b >= a for a, b in zip(seen, seen[1:]))
    assert seen[-1] == 1.0
    assert st.step == 10


def test_zero_gradient_leaves_x_alone():
    # one edge, term off, gamma 2: gradient vanishes at (0.5, 0.5)
    g = Graph.from_edge_list(2, [(0, 1)])
    p = ObjectiveParams(2.0, complement_term_enabled=False)
    st = AdamState.fresh(2)
    x = adam_step(g, p, np.array([0.5, 0.5]), st, alpha=0.5)
    np.testing.assert_array_equal(x, [0.5, 0.5])


def test_adam_step_rejects_bad_alpha(fig1):
    with pytest.raises(ValueError):
        adam_step(fig1, ObjectiveParams(5.0), np.zeros(5), AdamState.fresh(5), alpha=0.0)


def test_run_single_stops_at_fixed_point(fig1):
    x0 = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    out = run_single(fig1, ObjectiveParams(5.0), x0, iterations=50, alpha=0.5)
    assert out.found is not None
    assert out.found.members == (0, 3, 4)
    assert out.iterations_used == 1
    assert len(out.trace) == 1
    assert out.trace[0][0] == 1


def test_run_single_trace_when_not_found():
    g = complete_graph(3)
    # start dead center with a tiny step: no certificate in 5 iterations
    out = run_single(g, ObjectiveParams(3.0), np.full(3, 0.5), iterations=5, alpha=1e-12)
    assert out.found is None
    assert out.iterations_used == 5
    assert [t for t, _ in out.trace] == [1, 2, 3, 4, 5]


def test_complete_graph_yields_singletons():
    g = complete_graph(4)
    for seed in range(20):
        cfg = SolverConfig(gamma=4.0, alpha=0.5, iterations=60, batch_size=4, seed=seed)
        rep = solve(g, cfg, workers=1)
        assert rep.mis_found_count >= 1
        assert rep.best_size == 1


def test_empty_graph_takes_everything():
    g = Graph.from_edge_list(4, [])
    cfg = SolverConfig(gamma=4.0, alpha=0.5, iterations=60, batch_size=4, seed=0)
    rep = solve(g, cfg, workers=1)
    assert rep.best is not None
    assert rep.best.members == (0, 1, 2, 3)


def test_solve_small_graph_hits_optimum(fig1):
    cfg = SolverConfig(gamma=5.0, alpha=0.5, iterations=50, batch_size=8, batch_count=2, seed=1)
    rep = solve(fig1, cfg, workers=2)
    assert rep.best_size == 3
    assert rep.mis_found_count == 16
    assert rep.runs_completed == 16
    assert rep.numerical_failures == 0
    assert len(rep.trace) == 2


def test_single_run_via_external_mean(fig1):
    # pinning the mean and eta=0 makes batch_size=1 a deterministic probe
    x0 = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    cfg = SolverConfig(
        gamma=5.0, alpha=0.5, iterations=1, batch_size=1,
        init_scheme="external-mean", eta=0.0, mean=x0,
    )
    rep = solve(fig1, cfg, workers=1)
    assert rep.best is not None and rep.best.members == (0, 3, 4)
    assert rep.mis_found_count == 1


def test_worker_count_invariance():
    # in the second case the best set grows inside batch 2, whose blocks
    # start around the best set of the blocks RESTART_LAG back in their batch
    cases = [
        (gen_gnm(60, 900, 2),
         SolverConfig(gamma=60.0, alpha=0.5, iterations=120, batch_size=48, batch_count=2, seed=7)),
        (gen_er(200, 0.1, 1),
         SolverConfig(gamma=200.0, alpha=0.6, iterations=150,
                      batch_size=opt.CHUNK * (opt.RESTART_LAG + 3), batch_count=2, seed=1)),
    ]
    for g, cfg in cases:
        a = solve(g, cfg, workers=1)
        b = solve(g, cfg, workers=4)
        assert a.best is not None and b.best is not None
        assert a.best.members == b.best.members
        assert a.mis_found_count == b.mis_found_count
        assert a.runs_completed == b.runs_completed
    assert a.trace[0][1] < a.trace[1][1]


def test_restarts_start_at_best(monkeypatch):
    # variance 0 puts every later start on the incumbent's indicator, a
    # fixed point, so each of those runs certifies the incumbent itself
    g = gen_gnm(60, 900, 2)
    cfg = SolverConfig(gamma=60.0, alpha=0.5, iterations=120, batch_size=48, seed=7)
    first = solve(g, cfg, workers=1)
    monkeypatch.setattr(opt, "RESTART_ETA", 0.0)
    rep = solve(g, replace(cfg, batch_count=3), workers=2)
    assert first.best is not None and rep.best is not None
    assert rep.best.members == first.best.members
    assert rep.mis_found_count == first.mis_found_count + 2 * 48
    assert rep.runs_completed == 3 * 48


def test_numerical_failures_counted(fig1, monkeypatch):
    def poisoned(g, p, X):
        return np.full(X.shape, np.nan)

    monkeypatch.setattr(opt, "gradient_columns", poisoned)
    cfg = SolverConfig(gamma=5.0, alpha=0.5, iterations=10, batch_size=6, batch_count=2, seed=0)
    rep = solve(fig1, cfg, workers=1)
    assert rep.numerical_failures == 12
    assert rep.runs_completed == 0
    assert rep.mis_found_count == 0
    assert rep.best is None


def test_adam_step_raises_on_nan(fig1, monkeypatch):
    monkeypatch.setattr(opt, "gradient", lambda g, p, x: np.full(g.n, np.nan))
    with pytest.raises(NumericalError):
        adam_step(fig1, ObjectiveParams(5.0), np.zeros(5), AdamState.fresh(5), alpha=0.5)


def test_time_limit_skips_batches(fig1):
    cfg = SolverConfig(
        gamma=5.0, alpha=0.5, iterations=10, batch_size=4, batch_count=5,
        seed=0, time_limit=1e-9,
    )
    rep = solve(fig1, cfg, workers=1)
    assert rep.runs_completed == 0
    assert rep.best is None


def test_time_limit_skips_blocks(fig1, monkeypatch):
    # a fake clock that each block advances by 10 s: with a 5 s limit the
    # first block runs, the two after it in the same batch are skipped
    clock = [0.0]
    monkeypatch.setattr(opt, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    run_block = opt._run_block

    def slow_block(*args):
        clock[0] += 10.0
        return run_block(*args)

    monkeypatch.setattr(opt, "_run_block", slow_block)
    cfg = SolverConfig(
        gamma=5.0, alpha=0.5, iterations=10, batch_size=3 * opt.CHUNK, batch_count=2,
        seed=0, time_limit=5.0,
    )
    rep = solve(fig1, cfg, workers=1)
    assert rep.runs_completed == opt.CHUNK
    assert len(rep.trace) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, time_limit=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, init_scheme="external-mean")  # mean missing


def test_resampling_restarts():
    g = complete_graph(4)
    out = run_resampling(g, ObjectiveParams(4.0), iterations=400, alpha=0.5, seed=1)
    assert out.iterations == 400
    assert len(out.found_sizes) > 1
    assert set(out.found_sizes) == {1}
    assert out.best is not None and out.best.size == 1


def test_resampling_deterministic():
    g = gen_gnm(30, 200, 5)
    p = ObjectiveParams(30.0)
    a = run_resampling(g, p, iterations=300, alpha=0.5, seed=9)
    b = run_resampling(g, p, iterations=300, alpha=0.5, seed=9)
    assert a.found_sizes == b.found_sizes
    assert (a.best is None) == (b.best is None)
    if a.best is not None:
        assert a.best.members == b.best.members
