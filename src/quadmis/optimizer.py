"""Batched projected Adam over the box [0,1]^n with per-run early stop.

Scheduling never touches numerics: work is issued in fixed 32-column
blocks whose spans depend only on the batch size, so every float
reduction sees identical operands no matter how many workers run or in
what order blocks finish. solve() is therefore bitwise reproducible
across worker counts, which the test suite pins.

Inside a block the kernel works on live columns only. A column that has
certified or gone non-finite is dropped, and only columns whose
thresholded support changed since the last check are checked again.
Each column's arithmetic is the same whatever the width of the block it
sits in, so dropping columns changes no result.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import checker
from .checker import fast_mis_check, threshold
from .checker import fast_mis_check_batch  # noqa: F401  (perfbench/tracer.py wraps this name)
from .errors import InputError
from .graph import Graph, NodeSet
from .initialization import InitSpec, initial_mean, sample_around, sample_block
from .objective import DimensionError, ObjectiveParams, evaluate, gradient, gradient_columns

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8

# Fixed work-block width. A function of nothing: chunk c of a batch always
# covers the same column range, so reduction shapes are scheduling-invariant.
# It is also the recentring period: after the first batch every block starts
# around the best set of earlier blocks (see RESTART_LAG), so changing CHUNK
# changes results, not only speed.
CHUNK = 32

# After the first batch, block i of a batch starts from Normal(best, RESTART_ETA I)
# clamped to the box, where best is the best set of all earlier batches and
# of the blocks up to i - RESTART_LAG of its own batch (init_scheme while no
# set is known). Uniform or degree restarts alone settle near random maximal
# sets on sparse random graphs.
# The lag is what lets RESTART_LAG blocks run at once; it is a constant, not
# the worker count, so results stay worker-count invariant.
RESTART_ETA = 0.25
RESTART_LAG = 4


class NumericalError(RuntimeError):
    """A gradient went non-finite; the affected run is abandoned."""


@dataclass
class AdamState:
    m1: np.ndarray
    m2: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, n: int) -> "AdamState":
        return cls(np.zeros(n), np.zeros(n), 0)


@dataclass
class RunOutcome:
    found: NodeSet | None
    iterations_used: int
    trace: list[tuple[int, float]]


@dataclass(frozen=True)
class SolverConfig:
    """Everything one solve depends on, minus the graph and worker count.

    gamma is a resolved value here; use gamma_select or the preset helpers
    to derive it from a graph first. init_scheme draws the starts of the
    first batch; solve() draws later ones around the best set so far.
    """

    gamma: float
    alpha: float = 0.5
    iterations: int = 350
    batch_size: int = 64
    batch_count: int = 1
    init_scheme: str = "random"
    eta: float = 2.25
    seed: int = 0
    time_limit: float | None = None
    complement_term_enabled: bool = True
    mean: np.ndarray | None = None
    include_mean_as_first: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0.0:
            raise InputError("alpha must be positive")
        if self.iterations < 1 or self.batch_size < 1 or self.batch_count < 1:
            raise InputError("iterations, batch_size and batch_count must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0.0:
            raise InputError("time_limit must be positive when set")
        self.params()
        self.init_spec()

    def params(self) -> ObjectiveParams:
        return ObjectiveParams(self.gamma, self.complement_term_enabled)

    def init_spec(self) -> InitSpec:
        return InitSpec(
            scheme=self.init_scheme,
            eta=self.eta,
            seed=self.seed,
            count=self.batch_size * self.batch_count,
            mean=self.mean if self.init_scheme == "external-mean" else None,
            include_mean_as_first=self.include_mean_as_first,
        )


@dataclass
class SolveReport:
    best: NodeSet | None
    best_size: int
    mis_found_count: int
    runs_completed: int
    numerical_failures: int
    wall_time_ms: float
    trace: list[tuple[float, int]] = field(default_factory=list)
    config: SolverConfig | None = None
    n: int = 0
    m: int = 0
    source: str = ""


def adam_step(g: Graph, p: ObjectiveParams, x, st: AdamState, alpha: float) -> np.ndarray:
    """One bias-corrected Adam update followed by a box projection.

    st is advanced in place. Raises NumericalError if the gradient is not
    finite (cannot happen while x stays inside the box, but the guard is
    part of the contract).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    grad = gradient(g, p, x)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient")
    st.step += 1
    t = st.step
    st.m1 = BETA1 * st.m1 + (1.0 - BETA1) * grad
    st.m2 = BETA2 * st.m2 + (1.0 - BETA2) * grad * grad
    mhat = st.m1 / (1.0 - BETA1**t)
    vhat = st.m2 / (1.0 - BETA2**t)
    return np.clip(x - alpha * mhat / (np.sqrt(vhat) + EPS), 0.0, 1.0)


def run_single(g: Graph, p: ObjectiveParams, x0, iterations: int, alpha: float) -> RunOutcome:
    """Evolve one assignment for up to `iterations` steps.

    After every step the strict-positive support is checked; the run stops
    at the first maximal independent set. The trace records (iteration,
    objective value) after each step taken.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    x = np.array(x0, dtype=np.float64)
    if x.shape != (g.n,):
        raise DimensionError(f"expected length-{g.n} start point, got {x.shape}")
    st = AdamState.fresh(g.n)
    trace: list[tuple[int, float]] = []
    for t in range(1, iterations + 1):
        x = adam_step(g, p, x, st, alpha)
        trace.append((t, evaluate(g, p, x)))
        z = threshold(x)
        if fast_mis_check(g, p, z):
            members = tuple(int(v) for v in np.flatnonzero(z))
            return RunOutcome(NodeSet(members), t, trace)
    return RunOutcome(None, iterations, trace)


def _run_block(g, p, X, start, iterations, alpha):
    """Evolve the starts in the columns of X together; the solver kernel.

    Column j is initialization start + j. Returns (found, failures, width)
    where found[j] is None or (init index, member tuple, iteration). X is
    left unchanged.

    Work goes to live columns only: a column that certifies or whose
    gradient goes non-finite is dropped from the iterate and both moment
    matrices, and `cols` maps each remaining column back to its place in
    X. After each update only the live columns whose thresholded support
    changed are checked; the check is a pure function of that support, so
    an unchanged one is known to fail again. Every column sees exactly the
    arithmetic it would see in the full block (gradient_columns is
    width-invariant bit for bit), so results do not depend on which other
    columns are still live, nor on scheduling.
    """
    width = X.shape[1]
    X = np.array(X, dtype=np.float64, order="C")  # updated in place below
    M1 = np.zeros_like(X)
    M2 = np.zeros_like(X)
    cols = np.arange(width)
    Z = np.zeros(X.shape, dtype=bool)  # support of the live columns at the last check
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * width
    failures = 0
    for t in range(1, iterations + 1):
        G = gradient_columns(g, p, X)
        finite = np.isfinite(G).all(axis=0)
        if not finite.all():
            failures += int((~finite).sum())
            cols = cols[finite]
            if cols.size == 0:
                break
            X, M1, M2, G, Z = _keep(finite, X, M1, M2, G, Z)
        _adam_update(X, M1, M2, G, t, alpha)
        Znew = X > 0.0
        changed = (Znew != Z).any(axis=0) if t > 1 else np.ones(cols.size, dtype=bool)
        Z = Znew
        if not changed.any():
            continue
        ok = np.zeros(cols.size, dtype=bool)
        ok[changed] = checker.fast_mis_check_batch(g, p, np.compress(changed, Z, axis=1).astype(np.float64))
        if ok.any():
            for c in np.flatnonzero(ok):
                j = int(cols[c])
                found[j] = (start + j, tuple(int(v) for v in np.flatnonzero(Z[:, c])), t)
            live = ~ok
            cols = cols[live]
            if cols.size == 0:
                break
            X, M1, M2, Z = _keep(live, X, M1, M2, Z)
    return found, failures, width


def _keep(mask, *arrays):
    """The columns of each array that mask selects, as C-ordered copies."""
    return [np.compress(mask, a, axis=1) for a in arrays]


def _adam_update(X, M1, M2, G, t, alpha):
    """One bias-corrected Adam step with clipping to the box, in place.

    Same operations in the same order as adam_step, so the bits match;
    G is used as scratch.
    """
    M1 *= BETA1
    T = G * (1.0 - BETA1)
    M1 += T
    M2 *= BETA2
    np.multiply(G, 1.0 - BETA2, out=T)
    T *= G
    M2 += T
    np.divide(M1, 1.0 - BETA1**t, out=T)  # mhat
    T *= alpha
    np.divide(M2, 1.0 - BETA2**t, out=G)  # vhat
    np.sqrt(G, out=G)
    G += EPS
    T /= G
    X -= T
    np.clip(X, 0.0, 1.0, out=X)


def _resolve_workers(workers) -> int:
    if workers is None:
        return os.cpu_count() or 1
    return max(1, int(workers))


def solve(g: Graph, cfg: SolverConfig, workers: int | None = None, source: str = "") -> SolveReport:
    """Run batch_size * batch_count initializations and keep the largest set.

    Batches run sequentially. The first batch starts from cfg.init_scheme
    and all its blocks run concurrently. Later blocks start around the best
    set of earlier blocks (see RESTART_LAG), so at most RESTART_LAG of them
    run at once. Results are merged in initialization order, so equal-size
    sets resolve to the lowest initialization index. The optional time
    limit is checked before every batch and before every block starts: a
    block that would start after the deadline is skipped and not counted,
    but a started block always finishes, so a solve can overrun the limit
    by up to one block's run time.
    """
    t0 = time.perf_counter()
    p = cfg.params()
    spec = cfg.init_spec()
    mean = initial_mean(g, spec)
    g.adjacency_csr()  # build once, before workers share it
    nworkers = _resolve_workers(workers)
    best: NodeSet | None = None
    found_count = 0
    completed = 0
    failures = 0
    trace: list[tuple[float, int]] = []

    deadline = None if cfg.time_limit is None else t0 + cfg.time_limit

    def run_span(span, around: NodeSet | None):
        if deadline is not None and time.perf_counter() >= deadline:
            return None
        if around is None:
            X = sample_block(g.n, spec, mean, span[0], span[1])
        else:
            centre = np.zeros(g.n)
            centre[list(around.members)] = 1.0
            X = sample_around(centre, RESTART_ETA, cfg.seed, span[0], span[1])
        return _run_block(g, p, X, span[0], cfg.iterations, cfg.alpha)

    def merge(result):
        nonlocal best, found_count, completed, failures
        if result is None:  # skipped at the deadline
            return
        found, nfail, width = result
        failures += nfail
        completed += width - nfail
        for item in found:  # index order
            if item is None:
                continue
            _, members, _ = item
            found_count += 1
            if best is None or len(members) > best.size:
                best = NodeSet(members)

    with ThreadPoolExecutor(max_workers=nworkers) as executor:
        for b in range(cfg.batch_count):
            if deadline is not None and time.perf_counter() >= deadline:
                break
            lo = b * cfg.batch_size
            in_flight: deque[Future] = deque()
            for s in range(0, cfg.batch_size, CHUNK):
                span = (lo + s, lo + min(s + CHUNK, cfg.batch_size))
                if b > 0:
                    # merge up to RESTART_LAG blocks back, in index order
                    while len(in_flight) >= RESTART_LAG:
                        merge(in_flight.popleft().result())
                in_flight.append(executor.submit(run_span, span, best if b > 0 else None))
            while in_flight:
                merge(in_flight.popleft().result())
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            trace.append((elapsed_ms, 0 if best is None else best.size))
    return SolveReport(
        best=best,
        best_size=0 if best is None else best.size,
        mis_found_count=found_count,
        runs_completed=completed,
        numerical_failures=failures,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        trace=trace,
        config=cfg,
        n=g.n,
        m=g.m,
        source=source,
    )


@dataclass
class ResampleOutcome:
    found_sizes: list[int]
    best: NodeSet | None
    iterations: int


def run_resampling(g: Graph, p: ObjectiveParams, iterations: int, alpha: float, seed: int) -> ResampleOutcome:
    """Single evolving assignment with restart-on-success.

    Every time the current point certifies as a maximal independent set it
    is recorded, a fresh uniform start replaces it, and the optimizer
    state resets. The budget counts total gradient steps across restarts.
    Useful for measuring how quickly an objective variant reaches fixed
    points.
    """
    draw = 0
    x = np.random.default_rng([seed, draw]).random(g.n)
    st = AdamState.fresh(g.n)
    sizes: list[int] = []
    best: NodeSet | None = None
    for _ in range(iterations):
        x = adam_step(g, p, x, st, alpha)
        z = threshold(x)
        if fast_mis_check(g, p, z):
            members = tuple(int(v) for v in np.flatnonzero(z))
            sizes.append(len(members))
            if best is None or len(members) > best.size:
                best = NodeSet(members)
            draw += 1
            x = np.random.default_rng([seed, draw]).random(g.n)
            st = AdamState.fresh(g.n)
    return ResampleOutcome(found_sizes=sizes, best=best, iterations=iterations)
