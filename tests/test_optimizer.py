import multiprocessing
import os
import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse

import quadmis.graph as graph_module
from quadmis.graph import KERNEL_DTYPE
import quadmis.optimizer as opt
from quadmis import (
    AdamState,
    Graph,
    NodeSet,
    NumericalError,
    ObjectiveParams,
    SolverConfig,
    adam_step,
    gen_er,
    gen_gnm,
    gnm_edge_count,
    resolve_config,
    run_resampling,
    solve,
)
from quadmis.errors import InputError


def _frozen_gradient_columns(g, p, X):
    # A·X in X's dtype: the kernel's for its iterates, float64 for the check
    AX = g.adjacency_csr().astype(X.dtype).dot(X)
    if p.complement_term_enabled:
        return (p.gamma + 1.0) * AX - X.sum(axis=0) + X - 1.0
    return p.gamma * AX - 1.0


def _frozen_run_block(g, p, X, start, iterations, alpha, grad=_frozen_gradient_columns):
    """The full-width kernel the live-column one replaced, kept as the
    reference: every column is updated on every iteration in the kernel's
    dtype, and checked in float64 by the gradient's sign test."""
    X = X.astype(KERNEL_DTYPE)
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


def _poison(X, G):
    # columns that are not binary and whose bytes have a CRC divisible by
    # 128 go non-finite; a function of the column alone, so both kernels
    # poison the same runs at the same iteration, however many columns
    # each call recomputes
    for j in range(X.shape[1]):
        col = np.ascontiguousarray(X[:, j])
        if ((col != 0.0) & (col != 1.0)).any() and zlib.crc32(col.tobytes()) % 128 == 0:
            G[:, j] = np.nan
    return G


def _poisoned(grad):
    # the reference's gradient, called as grad(g, p, X)
    return lambda g, p, X: _poison(X, grad(g, p, X))


def _poisoned_form(form):
    # the kernel's gradient, called as form(p, X, P) with P = A·X
    return lambda p, X, P: _poison(X, form(p, X, P))


KERNEL_CASES = [
    # (name, graph, params, width, iterations, alpha)
    ("er", gen_er(200, 0.1, 1), ObjectiveParams(200.0), opt.CHUNK, 150, 0.6),
    ("dense-gnm", gen_gnm(120, 3570, 2), ObjectiveParams(120.0), opt.CHUNK, 350, 0.5),
    ("sparse", gen_er(400, 0.01, 3), ObjectiveParams(775.0), opt.CHUNK, 50, 0.9),
    ("partial", gen_er(200, 0.1, 4), ObjectiveParams(200.0), 7, 150, 0.6),
    ("no-complement", gen_er(150, 0.1, 5), ObjectiveParams(1.5, False), opt.CHUNK, 200, 0.5),
    ("width-1", gen_gnm(100, 2475, 0), ObjectiveParams(100.0), 1, 400, 0.5),
    # the er preset's shape: its wide products cross graph.SCATTER_MIN_WORK
    ("er700", gen_er(700, 0.15, 6), ObjectiveParams(775.0), opt.CHUNK, 150, 0.6),
]


@pytest.mark.parametrize("name,g,p,width,iterations,alpha", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_kernel_matches_full_width_reference(monkeypatch, name, g, p, width, iterations, alpha):
    scattered = []  # widths of the products that skip X's zero rows
    monkeypatch.setattr(graph_module, "_scatter_product", _counting(graph_module._scatter_product, scattered))
    X = np.random.default_rng(width).random((g.n, width))
    before = X.copy()
    got = opt._run_block(g, p, X, 64, iterations, alpha)
    assert np.array_equal(X, before)  # input untouched
    assert got == _frozen_run_block(g, p, X, 64, iterations, alpha)
    assert any(item is not None for item in got[0])
    if name == "er700":
        assert scattered


@pytest.mark.parametrize("keep", [True, False], ids=["counts", "products"])
@pytest.mark.parametrize("name,g,p,width,iterations,alpha", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_both_check_paths_match_reference(monkeypatch, keep, name, g, p, width, iterations, alpha):
    # the check reading its zero pattern off the kernel's kept product A·X
    # ("counts") or taking the neighbour counts A·Z itself ("products")
    # changes no bit
    check = opt.checker.fast_mis_check_batch
    handed = []

    def checked(g, Z, counts=None):
        handed.append(counts is not None)
        return check(g, Z, counts if keep else None)

    monkeypatch.setattr(opt.checker, "fast_mis_check_batch", checked)
    X = np.random.default_rng(width).random((g.n, width))
    got = opt._run_block(g, p, X, 64, iterations, alpha)
    assert got == _frozen_run_block(g, p, X, 64, iterations, alpha)
    assert any(item is not None for item in got[0])
    assert handed and all(handed)


def test_csr_backend_on_dense_graph_matches_reference(monkeypatch):
    # the frozen reference takes CSR products; forcing the CSR operator on
    # the dense-gnm shape keeps that path pinned where the rule picks dense
    monkeypatch.setattr(graph_module, "_dense_adjacency", lambda n, m: False)
    g = gen_gnm(120, 3570, 2)
    assert g.backend == "csr"
    p = ObjectiveParams(120.0)
    X = np.random.default_rng(opt.CHUNK).random((g.n, opt.CHUNK))
    got = opt._run_block(g, p, X, 64, 350, 0.5)
    assert got == _frozen_run_block(g, p, X, 64, 350, 0.5)
    assert any(item is not None for item in got[0])


def test_csr_kernel_builds_no_sparse_matrix(monkeypatch):
    # the CSR products call scipy's compiled loops directly: a block on
    # the er preset's shape, scattered products included, neither
    # multiplies, indexes nor transposes a scipy sparse matrix
    name, g, p, width, iterations, alpha = KERNEL_CASES[-1]
    assert name == "er700" and g.backend == "csr"
    X = np.random.default_rng(width).random((g.n, width))
    want = _frozen_run_block(g, p, X, 64, iterations, alpha)
    g.adjacency_csr()
    scattered = []
    monkeypatch.setattr(graph_module, "_scatter_product", _counting(graph_module._scatter_product, scattered))
    called = []
    for cls in (sparse.csr_matrix, sparse.csc_matrix):
        for method in ("dot", "__getitem__", "transpose"):
            def spy(self, *args, _method=getattr(cls, method), _name=f"{cls.__name__}.{method}", **kwargs):
                called.append(_name)
                return _method(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, spy)
    got = opt._run_block(g, p, X, 64, iterations, alpha)
    assert called == []
    assert scattered
    assert got == want
    # nor does it build one: the products read indptr, indices and the
    # kernel's ones
    fresh = Graph(g.n, g.indptr, g.indices)
    assert opt._run_block(fresh, p, X, 64, iterations, alpha) == want
    assert fresh._csr is None


@pytest.mark.parametrize("g", [gen_er(200, 0.1, 1), gen_gnm(60, 900, 2)], ids=["csr", "dense"])
def test_solve_builds_the_kernel_operator_before_any_block(monkeypatch, g):
    # forked workers share the operator only if solve builds it before
    # they fork; it takes no product to do so, and builds no scipy matrix.
    # With a deadline already past, no block runs.
    products = []
    monkeypatch.setattr(Graph, "kernel_product", lambda self, X: products.append(X))
    cfg = SolverConfig(gamma=float(g.n), batch_size=2 * opt.CHUNK, seed=0, time_limit=1e-9)
    assert solve(g, cfg, workers=2).runs_completed == 0
    assert products == [] and g._csr is None
    operator = g._operator
    assert operator is not None and g.adjacency() is operator


@pytest.mark.parametrize(
    "make", [lambda: gen_er(200, 0.1, 1), lambda: gen_gnm(60, 900, 2)], ids=["csr", "dense"]
)
def test_solver_takes_no_float64_product(monkeypatch, make):
    # the float64 matrix of the checks (adjacency_csr) is for their callers
    # only: a solve whose blocks run, and run_resampling, take every
    # product in the kernel's dtype and never build it
    g = make()
    calls = []
    product = Graph.adjacency_product
    monkeypatch.setattr(Graph, "adjacency_product", lambda self, X: calls.append(X.shape) or product(self, X))
    rep = solve(g, SolverConfig(gamma=float(g.n), iterations=100, batch_size=opt.CHUNK), workers=1)
    out = run_resampling(g, ObjectiveParams(float(g.n)), 300, 0.5, 0)
    assert rep.runs_completed == opt.CHUNK and rep.mis_found_count > 0 and out.found_sizes
    assert calls == [] and g._csr is None


def test_dense_backend_rule():
    # dense where 8m >= n^2, so the n^2 words fit in criterion 9's 8(n + m)
    dense = [(800, 159800), (100, 2475), *((n, gnm_edge_count(n)) for n in (500, 1000, 2000))]
    csr = [(700, 36700), (1290, 5418), (0, 0)]  # er700, sat1290, the empty graph
    assert all(graph_module._dense_adjacency(n, m) for n, m in dense)
    assert not any(graph_module._dense_adjacency(n, m) for n, m in csr)
    assert Graph.from_edge_list(0, []).backend == "csr"
    assert complete_graph(4).backend == "dense"


def test_kernel_matches_reference_with_partial_poison(monkeypatch):
    g = gen_er(200, 0.1, 1)
    p = ObjectiveParams(200.0)
    X = np.random.default_rng(0).random((g.n, opt.CHUNK))
    want = _frozen_run_block(g, p, X, 0, 150, 0.6, grad=_poisoned(_frozen_gradient_columns))
    monkeypatch.setattr(opt, "gradient_from_product", _poisoned_form(opt.gradient_from_product))
    got = opt._run_block(g, p, X, 0, 150, 0.6)
    assert got == want
    found, failures, width = got
    certified = sum(item is not None for item in found)
    assert 0 < failures < width and certified > 0


def _counting(form, seen):
    # records the width of X, the operand before the last, of every call:
    # form(p, X, P) and _scatter_product(indptr, indices, data, X, rows)
    def counting(*args):
        seen.append(args[-2].shape[1])
        return form(*args)

    return counting


@pytest.mark.parametrize("name,g,p,width,iterations,alpha,skips", [
    (*KERNEL_CASES[0], True),
    # small steps for a few iterations: no column reaches a vertex, so all move
    ("all-move", gen_er(200, 0.1, 1), ObjectiveParams(200.0), opt.CHUNK, 20, 0.01, False),
], ids=["er", "all-move"])
def test_kernel_forms_no_gradient_in_idle_iterations(monkeypatch, name, g, p, width, iterations, alpha, skips):
    # without failures a column lives until the iteration it certifies at,
    # and each live column-iteration starts from the column's gradient;
    # fewer are formed only where whole iterations idle
    X = np.random.default_rng(width).random((g.n, width))
    seen = []
    monkeypatch.setattr(opt, "gradient_from_product", _counting(opt.gradient_from_product, seen))
    found, failures, _ = opt._run_block(g, p, X, 0, iterations, alpha)
    live_col_iters = sum(iterations if item is None else item[2] for item in found)
    assert failures == 0
    if skips:
        assert sum(seen) < live_col_iters
    else:
        assert sum(seen) == live_col_iters


IDLE_CASES = [c for c in KERNEL_CASES if c[0] in ("er", "dense-gnm", "width-1")]


@pytest.mark.parametrize("name,g,p,width,iterations,alpha", IDLE_CASES, ids=[c[0] for c in IDLE_CASES])
def test_kernel_idles_where_no_column_moves(monkeypatch, name, g, p, width, iterations, alpha):
    # after the first iteration, one in which no column moved takes no
    # product, tests no support and checks nothing; the events logged
    # after an update belong to its iteration
    log = []
    update, product = opt._adam_update, Graph.kernel_product
    check = opt.checker.fast_mis_check_batch

    class Thresholded(np.ndarray):
        # an iterate that logs the block's support test, which starts by
        # thresholding it, X > 0
        def __gt__(self, other):
            log[-1][2].append("support")
            return np.asarray(self) > other

    def updating(X, M1, M2, G, t, alpha):
        V, moved = update(X, M1, M2, G, t, alpha)
        nmoved = int(np.count_nonzero((V != X).any(axis=0)))
        assert moved == (nmoved > 0)
        log.append((t, nmoved, []))
        return V.view(Thresholded), moved

    def producing(self, X):
        if log:
            log[-1][2].append("product")
        return product(self, np.asarray(X))

    def checking(g, Z, counts=None):
        log[-1][2].append("check")
        return check(g, Z, counts)

    monkeypatch.setattr(opt, "_adam_update", updating)
    monkeypatch.setattr(Graph, "kernel_product", producing)
    monkeypatch.setattr(opt.checker, "fast_mis_check_batch", checking)
    X = np.random.default_rng(width).random((g.n, width))
    got = opt._run_block(g, p, X, 64, iterations, alpha)
    idle = [events for t, nmoved, events in log if t > 1 and nmoved == 0]
    busy = [events for t, nmoved, events in log if t > 1 and nmoved > 0]
    assert idle and not any(idle)
    assert busy and all("product" in events and "support" in events for events in busy)
    assert got == _frozen_run_block(g, p, X, 64, iterations, alpha)


def test_kernel_cases_cover_partial_moves_and_changes(monkeypatch):
    # the reference tests above pin iterations in which some but not all
    # live columns moved, and checks at which some but not all live
    # supports changed: the kernel recomputes and checks those blocks
    # whole, where it once took only the columns that moved or changed
    update, check = opt._adam_update, opt.checker.fast_mis_check_batch
    partial_moves, partial_changes = set(), set()
    name = last = None  # last: the supports of the last check, less the columns it certified

    def updating(X, M1, M2, G, t, alpha):
        V, moved = update(X, M1, M2, G, t, alpha)
        if 0 < np.count_nonzero((V != X).any(axis=0)) < X.shape[1]:
            partial_moves.add(name)
        return V, moved

    def checking(g, Z, counts=None):
        nonlocal last
        ok = check(g, Z, counts)
        if last is not None:
            assert last.shape == Z.shape  # no failures: the live columns are those left
            changed = np.count_nonzero((Z != last).any(axis=0))
            assert changed > 0
            if changed < Z.shape[1]:
                partial_changes.add(name)
        last = Z[:, ~ok]
        return ok

    monkeypatch.setattr(opt, "_adam_update", updating)
    monkeypatch.setattr(opt.checker, "fast_mis_check_batch", checking)
    for name, g, p, width, iterations, alpha in KERNEL_CASES:
        last = None
        X = np.random.default_rng(width).random((g.n, width))
        assert opt._run_block(g, p, X, 64, iterations, alpha)[1] == 0
    assert partial_moves and partial_changes


@pytest.mark.parametrize("n,k", [
    (1, 1), (5, 8), (31, 5), (64, 3), (200, 1), (200, 32), (383, 2), (384, 2), (1290, 17), (1290, 32),
    *((100, k) for k in range(1, 9)),
])
def test_differs_matches_plain_reduction(n, k):
    # shapes on both sides of checker.FOLD_MIN_ROWS, where per_column
    # starts to fold
    rng = np.random.default_rng(n * k)
    A = rng.random((n, k))
    g = Graph.from_edge_list(n, [])  # the check below reads no product of it
    for flips in (0, 1, 3):
        # the first flip lands in the last row, past the folded slabs
        rows = np.r_[n - 1, rng.integers(0, n, flips)][:flips]
        B = A.copy()
        # the finiteness mask folds its reduction with per_column
        B[rows, rng.integers(0, k, flips)] = [np.nan, np.inf, -np.inf][:flips]
        assert np.array_equal(opt._finite_columns(B), np.isfinite(B).all(axis=0))
        # and so does the check, on boolean and on 0/1 float supports
        Z = A < 0.3
        counts = np.where(Z, 0.0, A)
        counts[rows, rng.integers(0, k, flips)] = [0.0, 2.0, 0.0][:flips]
        want = ((counts == 0) == Z).all(axis=0)
        for support in (Z, Z.astype(np.float64)):
            assert np.array_equal(opt.checker.fast_mis_check_batch(g, support, counts), want)


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
    # the alpha check SolverConfig and run_resampling share: a bool, an
    # infinity and a value past the largest float32 are bad input
    for alpha in (True, float("inf"), 1e39):
        with pytest.raises(InputError):
            adam_step(fig1, ObjectiveParams(5.0), np.zeros(5), AdamState.fresh(5), alpha=alpha)


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


def test_low_gamma_solve_reports_only_maximal_sets():
    # gamma 21 is far below the sets this graph's iterates settle on; the
    # certificate must still accept only maximal independent sets
    g = gen_er(200, 0.05, 1)
    cfg = resolve_config(g, gamma=21.0, iterations=300, batch_size=64, seed=0)
    rep = solve(g, cfg, workers=1)
    assert rep.best is None or g.is_maximal_independent(rep.best)


def test_every_certified_set_is_maximal_without_complement():
    # at gamma 1 the gradient's sign test accepts members with one member
    # neighbour; the certificate reads maximality off the counts instead
    g = gen_er(60, 0.1, 1)
    X = np.random.default_rng(6).random((g.n, opt.CHUNK))
    found, _, _ = opt._run_block(g, ObjectiveParams(1.0, False), X, 0, 350, 0.5)
    sets = [NodeSet(item[1]) for item in found if item is not None]
    assert sets and all(g.is_maximal_independent(s) for s in sets)


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
    def poisoned(p, X, P):
        return np.full(X.shape, np.nan)

    monkeypatch.setattr(opt, "gradient_from_product", poisoned)
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


def test_time_limit_with_forked_workers():
    # the deadline passes inside the run; each worker checks it before a
    # block starts, so only whole blocks are counted
    g = gen_er(200, 0.1, 1)
    cfg = SolverConfig(
        gamma=200.0, alpha=0.6, iterations=150, batch_size=4 * opt.CHUNK, batch_count=10_000,
        seed=1, time_limit=0.3,
    )
    rep = solve(g, cfg, workers=2)
    started = rep.runs_completed + rep.numerical_failures
    assert 0 < started < cfg.batch_size * cfg.batch_count
    assert started % opt.CHUNK == 0
    assert len(rep.trace) <= cfg.batch_count
    assert multiprocessing.active_children() == []


def test_forked_workers_are_joined():
    g = gen_er(200, 0.1, 1)
    cfg = SolverConfig(gamma=200.0, alpha=0.6, iterations=50, batch_size=3 * opt.CHUNK, batch_count=2, seed=1)
    rep = solve(g, cfg, workers=2)
    assert rep.runs_completed == 2 * cfg.batch_size
    assert multiprocessing.active_children() == []


def test_block_error_reaches_the_caller(monkeypatch):
    def failing_block(*args):
        raise RuntimeError(f"block failed in process {os.getpid()}")

    monkeypatch.setattr(opt, "_run_block", failing_block)
    g = gen_er(200, 0.1, 1)
    cfg = SolverConfig(gamma=200.0, alpha=0.6, iterations=50, batch_size=3 * opt.CHUNK, batch_count=2, seed=1)
    with pytest.raises(RuntimeError, match="block failed in process") as err:
        solve(g, cfg, workers=2)
    assert int(str(err.value).split()[-1]) != os.getpid()  # the block ran in a worker
    assert multiprocessing.active_children() == []


def test_solve_runs_blocks_on_one_blas_thread(monkeypatch):
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            loaded = any("openblas" in line.rsplit("/", 1)[-1].lower() for line in maps)
    except OSError:
        loaded = False
    if not loaded:
        pytest.skip("no OpenBLAS library loaded")
    pairs = opt._openblas_threads()
    assert pairs
    get, put = pairs[0]
    run_block = opt._run_block
    seen = []

    def counting_block(*args):
        seen.append(get())
        return run_block(*args)

    def failing_block(*args):
        raise RuntimeError(f"{get()} BLAS threads in process {os.getpid()}")

    g = gen_er(200, 0.1, 1)
    cfg = SolverConfig(gamma=200.0, alpha=0.6, iterations=50, batch_size=3 * opt.CHUNK, seed=1)
    caller = get()
    put(2)
    try:
        monkeypatch.setattr(opt, "_run_block", counting_block)
        assert solve(g, cfg, workers=1).runs_completed == cfg.batch_size
        assert seen == [1, 1, 1]
        assert get() == 2  # restored after solve returns
        run_resampling(g, cfg.params(), 100, 0.6, 0)
        assert len(seen) > 3 and set(seen) == {1}
        assert get() == 2
        monkeypatch.setattr(opt, "_run_block", failing_block)
        with pytest.raises(RuntimeError, match="BLAS threads") as err:
            solve(g, cfg, workers=2)
        threads, *_, pid = str(err.value).split()
        assert int(threads) == 1 and int(pid) != os.getpid()  # a forked worker inherits the pin
        assert get() == 2  # restored after solve raises
    finally:
        put(caller)
    assert multiprocessing.active_children() == []


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert opt._resolve_workers(None) == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert opt._resolve_workers(None) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert opt._resolve_workers(None) == 1
    assert opt._resolve_workers(5) == 5


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, alpha=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, iterations=0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, time_limit=0.0)
    with pytest.raises(ValueError):
        SolverConfig(gamma=5.0, init_scheme="external-mean")  # mean missing
    # NaN fails every range check, and a mean needs the external-mean scheme
    for bad in (
        dict(alpha=float("nan")),
        dict(eta=float("nan")),
        dict(time_limit=float("nan")),
        dict(init_scheme="external-mean", mean=np.full(4, np.nan)),
        dict(init_scheme="degree", mean=np.full(4, 0.5)),
        # a count is a Python or numpy integer, not a float or a bool
        dict(iterations=2.5),
        dict(batch_size=4.5),
        dict(batch_count=True),
        dict(seed=1.5),
        # a real setting is a number and not a bool; the complement toggle is a bool
        dict(alpha=True),
        dict(eta=True),
        dict(time_limit=True),
        dict(gamma="5"),
        dict(complement_term_enabled="no"),
        dict(complement_term_enabled=0),
        dict(alpha=10**400),  # an integer too large for a float
        dict(gamma=float("inf")),  # a gradient of inf times a zero product is NaN
        # gamma and alpha must be finite in the kernel's float32
        dict(gamma=1e39),
        dict(alpha=1e39),
        dict(alpha=float("inf")),
    ):
        with pytest.raises(InputError):
            SolverConfig(**(dict(gamma=5.0) | bad))
    cfg = SolverConfig(gamma=5.0, iterations=np.int64(3), batch_size=np.int32(4), batch_count=2, seed=np.uint8(1))
    assert cfg.iterations == 3
    cfg = SolverConfig(gamma=np.float32(5.0), alpha=np.float64(0.5), eta=np.float32(1.0), time_limit=np.int64(2))
    assert cfg.alpha == 0.5 and cfg.time_limit == 2
    top = float(np.finfo(KERNEL_DTYPE).max)
    assert SolverConfig(gamma=top, alpha=top).gamma == top
    with pytest.raises(InputError, match="gamma must be at most 3.403e\\+38, the largest float32"):
        SolverConfig(gamma=2 * top)


def test_gamma_whose_gradients_overflow_is_bad_input():
    # gamma fits float32, but (gamma + 1) times a degree does not: every
    # run would go non-finite, so solve and run_resampling refuse it; a
    # smaller gamma, or a graph without edges, runs
    top = float(np.finfo(KERNEL_DTYPE).max)
    g = gen_er(60, 0.1, 1)
    for gamma in (top, top / g.max_degree * 1.01):
        with pytest.raises(InputError, match="overflows float32"):
            solve(g, SolverConfig(gamma=gamma, iterations=5, batch_size=2), workers=1)
        with pytest.raises(InputError, match="overflows float32"):
            run_resampling(g, ObjectiveParams(gamma), 5, 0.5, 0)
    assert solve(g, SolverConfig(gamma=1e15, iterations=5, batch_size=2), workers=1).numerical_failures == 0
    assert solve(Graph.from_edge_list(3, []), SolverConfig(gamma=top, iterations=5, batch_size=2), workers=1).best_size == 3


def test_gamma_whose_adam_moments_overflow_is_bad_input():
    # the Adam update squares each gradient entry, so a gamma whose
    # gradients fit float32 can still overflow the second moment; the
    # bound on the entries, (gamma + 1) max_degree + n + 1, must stay
    # below half of the square root of the float32 maximum
    g = gen_er(200, 0.05, 1)
    edge = (np.sqrt(float(np.finfo(KERNEL_DTYPE).max)) / 2 - g.n - 1) / g.max_degree - 1
    for gamma in (1e20, edge * 1.001):
        with pytest.raises(InputError, match="overflows float32"):
            solve(g, SolverConfig(gamma=gamma, iterations=100, batch_size=32), workers=1)
        with pytest.raises(InputError, match="the Adam update squares them"):
            run_resampling(g, ObjectiveParams(gamma), 100, 0.5, 0)
    with np.errstate(over="raise"):
        assert solve(g, SolverConfig(gamma=edge * 0.999, iterations=100, batch_size=32), workers=1).numerical_failures == 0
        run_resampling(g, ObjectiveParams(edge * 0.999), 100, 0.5, 0)


def test_alpha_whose_adam_step_overflows_is_bad_input():
    # the Adam step multiplies the mean gradient, whose entries are at
    # most b = (gamma + 1) max_degree + n + 1, by alpha and divides it by
    # as little as EPS, so 4 alpha b / EPS must be finite in float32: both
    # entry points refuse an alpha past that with InputError, and an
    # alpha just inside it runs without an overflow
    g = gen_er(50, 0.1, 1)
    p = ObjectiveParams(50.0)
    b = (p.gamma + 1.0) * g.max_degree + g.n + 1.0
    edge = float(np.finfo(KERNEL_DTYPE).max) * opt.EPS / (4.0 * b)
    for alpha, message in (
        (float("inf"), "the largest float32"),
        (1e39, "the largest float32"),
        (1e38, "the Adam step"),
        (edge * 1.001, "the Adam step"),
        (True, "not a bool"),
    ):
        with pytest.raises(InputError, match=message):
            solve(g, SolverConfig(gamma=p.gamma, alpha=alpha, iterations=200, batch_size=32), workers=1)
        with pytest.raises(InputError, match=message):
            run_resampling(g, p, 200, alpha, 0)
    with np.errstate(over="raise"):
        cfg = SolverConfig(gamma=p.gamma, alpha=edge * 0.999, iterations=200, batch_size=32)
        assert solve(g, cfg, workers=1).numerical_failures == 0
        run_resampling(g, p, 200, edge * 0.999, 0)


def _mean_config(mean):
    return SolverConfig(gamma=5.0, init_scheme="external-mean", mean=mean)


def test_configs_with_equal_means_compare_equal():
    a, b = _mean_config([0.5, 0.2]), _mean_config(np.array([0.5, 0.2]))
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_configs_with_different_means_compare_unequal():
    assert _mean_config([0.5, 0.2]) != _mean_config([0.5, 0.3])
    assert _mean_config([0.5, 0.2]) != _mean_config([0.5, 0.2, 0.1])
    assert _mean_config([0.5, 0.2]) != replace(_mean_config([0.5, 0.2]), seed=1)
    assert SolverConfig(gamma=5.0) != _mean_config([0.5, 0.2])


def test_solve_rejects_a_mean_of_the_wrong_length(fig1):
    # a config does not know the graph, so solve checks the mean against it
    for length in (4, 6):
        with pytest.raises(InputError, match=f"mean vector has {length} entries, graph has 5 nodes"):
            solve(fig1, _mean_config(np.full(length, 0.5)), workers=1)


def test_config_with_mean_hashes():
    configs = {_mean_config([0.5, 0.2]), _mean_config([0.5, 0.2]), _mean_config([0.1, 0.2]), SolverConfig(gamma=5.0)}
    assert len(configs) == 3


def _frozen_gradient(g, p, x):
    # the sum of x added row by row, as the kernel adds every column, and
    # A·x in x's dtype
    ax = g.adjacency_csr().astype(x.dtype).dot(x)
    if p.complement_term_enabled:
        return (p.gamma + 1.0) * ax - np.cumsum(x)[-1] + x - 1.0
    return p.gamma * ax - 1.0


def _frozen_adam(x, m1, m2, grad, t, alpha):
    m1 = opt.BETA1 * m1 + (1.0 - opt.BETA1) * grad
    m2 = opt.BETA2 * m2 + (1.0 - opt.BETA2) * grad * grad
    mhat = m1 / (1.0 - opt.BETA1**t)
    vhat = m2 / (1.0 - opt.BETA2**t)
    return np.clip(x - alpha * mhat / (np.sqrt(vhat) + opt.EPS), 0.0, 1.0), m1, m2


def _frozen_run_resampling(g, p, iterations, alpha, seed):
    """The scalar step-and-check loop that run_resampling replaced, kept as
    the reference: one Adam step in the kernel's dtype, threshold and
    float64 sign test per iteration. Also returns the total step count at
    each certificate."""
    draw = 0
    x = _frozen_start(g, seed, draw)
    m1, m2, t = np.zeros(g.n, KERNEL_DTYPE), np.zeros(g.n, KERNEL_DTYPE), 0
    sizes, best, ends = [], None, []
    for used in range(1, iterations + 1):
        t += 1
        x, m1, m2 = _frozen_adam(x, m1, m2, _frozen_gradient(g, p, x), t, alpha)
        z = (x > 0.0).astype(np.float64)
        gz = _frozen_gradient(g, p, z)
        if not np.where(z == 1.0, gz > 0.0, gz < 0.0).any():
            members = tuple(int(v) for v in np.flatnonzero(z))
            sizes.append(len(members))
            ends.append(used)
            if best is None or len(members) > len(best):
                best = members
            draw += 1
            x = _frozen_start(g, seed, draw)
            m1, m2, t = np.zeros(g.n, KERNEL_DTYPE), np.zeros(g.n, KERNEL_DTYPE), 0
    return sizes, best, ends


def _frozen_start(g, seed, draw):
    """Start `draw` of the random scheme, as the kernel holds it."""
    return np.random.default_rng([seed, draw]).random(g.n).astype(KERNEL_DTYPE)


RESAMPLING_CASES = [
    # (name, graph, params, iterations, seed); the last two are criterion 7's
    # arms on its first instance at its full budget (at 2,000 steps the
    # reward-off arm certifies nothing)
    ("gnm30", gen_gnm(30, 200, 5), ObjectiveParams(30.0), 300, 9),
    ("reward-on", gen_gnm(100, 2475, 0), ObjectiveParams(100.0), 10_000, 7000),
    ("reward-off", gen_gnm(100, 2475, 0), ObjectiveParams(1.0001, False), 10_000, 7000),
]


@pytest.mark.parametrize("name,g,p,iterations,seed", RESAMPLING_CASES, ids=[c[0] for c in RESAMPLING_CASES])
def test_resampling_matches_scalar_reference(name, g, p, iterations, seed):
    out = run_resampling(g, p, iterations=iterations, alpha=0.5, seed=seed)
    sizes, best, _ = _frozen_run_resampling(g, p, iterations, 0.5, seed)
    assert sizes and out.found_sizes == sizes
    assert out.best is not None and out.best.members == best
    assert out.iterations == iterations


def test_resampling_budget_counts_every_step():
    # a budget that ends on the third certificate's last step finds three
    # sets; one step less finds two
    g, p = gen_gnm(30, 200, 5), ObjectiveParams(30.0)
    ends = _frozen_run_resampling(g, p, 300, 0.5, 9)[2]
    assert len(run_resampling(g, p, ends[2], 0.5, 9).found_sizes) == 3
    assert len(run_resampling(g, p, ends[2] - 1, 0.5, 9).found_sizes) == 2


def _recording_widths(monkeypatch):
    """Record the width of every block that _run_block is given."""
    widths = []
    run_block = opt._run_block

    def recording(g, p, X, *rest):
        widths.append(X.shape[1])
        return run_block(g, p, X, *rest)

    monkeypatch.setattr(opt, "_run_block", recording)
    return widths


@pytest.mark.parametrize("name,g,p,iterations,seed", RESAMPLING_CASES, ids=[c[0] for c in RESAMPLING_CASES])
def test_resampling_block_width_changes_nothing(monkeypatch, name, g, p, iterations, seed):
    # the full budget, and budgets that end inside a block: on a
    # certificate's last step and one step before it
    ends = _frozen_run_resampling(g, p, iterations, 0.5, seed)[2]
    end = ends[min(2, len(ends) - 1)]
    widths = _recording_widths(monkeypatch)
    for budget in (iterations, end, end - 1):
        sizes, best, _ = _frozen_run_resampling(g, p, budget, 0.5, seed)
        for width in (1, 3, 8, opt.CHUNK):
            monkeypatch.setattr(opt, "_restart_width", lambda left, used, certified: width)
            widths.clear()
            out = run_resampling(g, p, budget, 0.5, seed)
            assert set(widths) == {width}
            assert out.found_sizes == sizes
            assert (None if out.best is None else out.best.members) == best


def test_restart_width_rule():
    assert opt._restart_width(10_000, 0, 0) == opt.RESTART_FIRST_WIDTH
    assert opt._restart_width(9_000, 1_000, 10) == opt.CHUNK  # about 90 more
    assert opt._restart_width(900, 1_000, 10) == 9
    assert opt._restart_width(50, 9_950, 2) == 1


def _poisoned_at(form, x, hits):
    """form with NaN in every column equal to x; records how many it hit."""

    def poisoned(p, X, P):
        G = form(p, X, P)
        hit = (X == x[:, None]).all(axis=0)
        hits.append(int(hit.sum()))
        G[:, hit] = np.nan
        return G

    return poisoned


def test_resampling_raises_only_within_the_budget(monkeypatch):
    # start 2's gradient goes non-finite after its first step, so its run
    # fails at step 2. The one-at-a-time loop raises when runs 0 and 1 leave
    # it two steps or more, and not when they leave fewer, although a block
    # of width 3 or more runs start 2 past that point.
    g, p = gen_gnm(30, 200, 5), ObjectiveParams(30.0)
    ends = _frozen_run_resampling(g, p, 300, 0.5, 9)[2]
    assert ends[2] - ends[1] > 2  # run 2 does not certify by step 2
    x0, zeros = _frozen_start(g, 9, 2), np.zeros(g.n, KERNEL_DTYPE)
    x1 = _frozen_adam(x0, zeros, zeros, _frozen_gradient(g, p, x0), 1, 0.5)[0]
    hits = []
    monkeypatch.setattr(opt, "gradient_from_product", _poisoned_at(opt.gradient_from_product, x1, hits))
    widths = _recording_widths(monkeypatch)
    for budget, raises in ((ends[1], False), (ends[1] + 1, False), (ends[1] + 2, True), (300, True)):
        sizes, best, _ = _frozen_run_resampling(g, p, budget, 0.5, 9)
        for width in (1, 3, 8, opt.CHUNK):
            monkeypatch.setattr(opt, "_restart_width", lambda left, used, certified: width)
            hits.clear()
            widths.clear()
            if raises:
                with pytest.raises(NumericalError):
                    run_resampling(g, p, budget, 0.5, 9)
            else:
                out = run_resampling(g, p, budget, 0.5, 9)
                assert out.found_sizes == sizes and len(sizes) == 2
                assert out.best is not None and out.best.members == best
            assert any(hits) == (raises or width >= 3)
            assert widths[0] == width and set(widths[1:]) <= {1, width}


@pytest.mark.parametrize("iterations", [2.5, np.float64(10.0), True, -1, "10", None])
def test_resampling_rejects_bad_budget(fig1, iterations):
    with pytest.raises(ValueError, match="iterations"):
        run_resampling(fig1, ObjectiveParams(5.0), iterations=iterations, alpha=0.5, seed=0)


def test_resampling_takes_zero_and_numpy_budgets(fig1):
    p = ObjectiveParams(5.0)
    assert run_resampling(fig1, p, 0, 0.5, 0) == opt.ResampleOutcome([], None, 0)
    out = run_resampling(fig1, p, np.int64(40), 0.5, 0)
    assert type(out.iterations) is int and out == run_resampling(fig1, p, 40, 0.5, 0)


def test_adam_step_matches_scalar_reference():
    g = gen_gnm(30, 200, 5)
    p = ObjectiveParams(30.0)
    x = np.random.default_rng(3).random(g.n)
    st = AdamState.fresh(g.n)
    m1, m2 = np.zeros(g.n), np.zeros(g.n)
    for t in range(1, 41):
        before = x.copy()
        got = adam_step(g, p, x, st, alpha=0.5)
        assert np.array_equal(x, before)  # input untouched
        x, m1, m2 = _frozen_adam(x, m1, m2, _frozen_gradient(g, p, x), t, 0.5)
        assert np.array_equal(got, x)
        assert np.array_equal(st.m1, m1) and np.array_equal(st.m2, m2) and st.step == t


def test_resampling_raises_on_nan(fig1, monkeypatch):
    monkeypatch.setattr(opt, "gradient_from_product", lambda p, X, P: np.full(X.shape, np.nan))
    with pytest.raises(NumericalError):
        run_resampling(fig1, ObjectiveParams(5.0), iterations=10, alpha=0.5, seed=0)


def test_resampling_rejects_bad_alpha(fig1):
    with pytest.raises(ValueError):
        run_resampling(fig1, ObjectiveParams(5.0), iterations=10, alpha=0.0, seed=0)


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
