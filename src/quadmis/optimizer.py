"""Batched projected Adam over the box [0,1]^n with per-run early stop.

Scheduling never touches numerics: work is issued in fixed 32-column
blocks whose spans depend only on the batch size, so every float
reduction sees identical operands no matter how many workers run or in
what order blocks finish. solve() is therefore bitwise reproducible
across worker counts, which the test suite pins.

Inside a block the kernel works on live columns only. A column that has
certified or gone non-finite is dropped, and only columns whose
thresholded support changed since the last check are checked again. The
gradient is kept from one iteration to the next and recomputed only for
the columns the Adam step moved: a column whose iterate did not change
(momentum often holds it at a box vertex) has the gradient it had.
On dense graphs (see _keeps_counts) a block also keeps the check's
neighbour counts A·Z and updates them from the adjacency rows of the nodes
whose threshold flipped, instead of taking a product per check. The
counts are exact integers, so this changes no bit either.
Each column's arithmetic is the same whatever the width of the block it
sits in, so dropping columns and skipping products change no result. The
scalar entry points (adam_step, run_resampling) are width-1 calls into
the same update and kernel.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import checker
from .checker import fast_mis_check, fast_mis_check_batch  # noqa: F401  (perfbench/tracer.py wraps these names)
from .errors import InputError
from .graph import Graph, NodeSet
from .initialization import SCHEMES, initial_mean, sample_around, sample_block
from .objective import ObjectiveParams, gradient, gradient_columns

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

# A block keeps the check's neighbour counts only where a full product A·Z
# clearly costs more than the few passes over the block that their upkeep
# takes: an average degree of at least COUNTS_MIN_DEGREE and at least
# COUNTS_MIN_ENTRIES adjacency entries times columns. Below either the
# upkeep cost more than it saved (planted 3-SAT at degree 8.4; width-1
# blocks on G(100, 2475)).
COUNTS_MIN_DEGREE = 32
COUNTS_MIN_ENTRIES = 1 << 16

# Updating the counts costs about this many times as much per adjacency
# entry as a CSR product does per entry and column (numpy gather and
# scatter, about 10 ns, against about 0.5 ns). So a step that flips more
# than 1/COUNTS_ENTRY_COST of the entries of the columns it changes takes a
# product for them instead; early steps, which flip many nodes, do.
COUNTS_ENTRY_COST = 16


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


@dataclass(frozen=True)
class SolverConfig:
    """Everything one solve depends on, minus the graph and worker count.

    gamma is a resolved value here; use gamma_select or the preset helpers
    to derive it from a graph first. init_scheme draws the starts of the
    first batch; solve() draws later ones around the best set so far.
    mean goes with the external-mean scheme only. This is the one place
    the solver settings are checked, for type and range (InputError;
    InvalidGamma for gamma), and each range check is written so that NaN
    fails it. Numbers are stored as Python int and float, numpy ones
    included. The fields are the one list of the settings: suites, the CLI
    overrides and the report's config derive from them.
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

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "eta", "time_limit"):
            value = getattr(self, name)
            if not (_is_real(value) or value is None and name == "time_limit"):
                raise InputError(f"{name} must be a number and not a bool, got {value!r}")
            try:
                object.__setattr__(self, name, None if value is None else float(value))
            except OverflowError:
                raise InputError(f"{name} is too large for a float, got {value!r}") from None
        if not isinstance(self.complement_term_enabled, bool):
            raise InputError(f"complement_term_enabled must be a bool, got {self.complement_term_enabled!r}")
        if not self.alpha > 0.0:
            raise InputError(f"alpha must be positive, got {self.alpha}")
        if not all(_is_count(k) and k >= 1 for k in (self.iterations, self.batch_size, self.batch_count)):
            raise InputError("iterations, batch_size and batch_count must be integers >= 1")
        if self.time_limit is not None and not self.time_limit > 0.0:
            raise InputError(f"time_limit must be positive when set, got {self.time_limit}")
        if self.init_scheme not in SCHEMES:
            raise InputError(f"unknown init_scheme {self.init_scheme!r}; pick one of {SCHEMES}")
        if not self.eta >= 0.0:
            raise InputError(f"eta must be non-negative, got {self.eta}")
        if not (_is_count(self.seed) and self.seed >= 0):
            raise InputError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("iterations", "batch_size", "batch_count", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if (self.mean is not None) != (self.init_scheme == "external-mean"):
            raise InputError("a mean vector is given if and only if init_scheme is 'external-mean'")
        if self.mean is not None:
            try:
                m = np.array(self.mean, dtype=np.float64)
            except (TypeError, ValueError):
                m = None
            if m is None or m.ndim != 1 or not ((m >= 0.0) & (m <= 1.0)).all():
                raise InputError("mean must be a vector with entries in [0, 1]")
            m.setflags(write=False)
            object.__setattr__(self, "mean", m)
        self.params()

    def params(self) -> ObjectiveParams:
        return ObjectiveParams(self.gamma, self.complement_term_enabled)

    # The mean compares by value: the generated methods would compare the
    # ndarray itself, which makes == ambiguous and hash() raise.
    def _key(self) -> tuple:
        mean = None if self.mean is None else tuple(self.mean.tolist())
        return tuple(getattr(self, f.name) for f in fields(self) if f.name != "mean") + (mean,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _is_count(k) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _is_real(x) -> bool:
    """A Python or numpy integer or float, not a bool."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


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

    The kernel's update (_adam_update) on x as a single column; st is
    advanced in place and x is left unchanged. Raises NumericalError if
    the gradient is not finite (cannot happen while x stays inside the
    box, but the guard is part of the contract).
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    grad = gradient(g, p, x)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient")
    st.step += 1
    x = np.asarray(x, dtype=np.float64)
    X, _ = _adam_update(x[:, None], st.m1[:, None], st.m2[:, None], grad[:, None], st.step, alpha)
    return X[:, 0]


def _run_block(g, p, X, start, iterations, alpha):
    """Evolve the starts in the columns of X together; the solver kernel.

    Column j is initialization start + j. Returns (found, failures, width)
    where found[j] is None or (init index, member tuple, iteration). X is
    left unchanged.

    Work goes to live columns only: a column that certifies or whose
    gradient goes non-finite is dropped from the iterate, the kept
    gradient and both moment matrices, and `cols` maps each remaining
    column back to its place in X. The raw gradient G is kept across
    iterations: after each update only the columns in the `moved` mask
    (the iterate changed) get a new product, since the gradient is a pure
    function of the column. After the last iteration none is computed.
    Likewise only the live columns whose thresholded support changed are
    checked; the check is a pure function of that support, so an
    unchanged one is known to fail again. A gradient is tested for
    finiteness once, when it is computed; a column that fails drops at the
    top of the next iteration.

    Where _keeps_counts(n, m, width) holds, C keeps the neighbour counts
    A·Z of the live columns (else it is None). One mask of flipped entries
    gives both the changed columns and the update of C, and the check
    reads C instead of taking the product A·Z. Every column sees exactly the
    arithmetic it would see in the full block (gradient_columns is
    width-invariant bit for bit), so results do not depend on which other
    columns are still live or moved, nor on scheduling.
    """
    width = X.shape[1]
    X = np.array(X, dtype=np.float64, order="C")
    M1 = np.zeros_like(X)
    M2 = np.zeros_like(X)
    cols = np.arange(width)
    Z = np.zeros(X.shape, dtype=bool)  # support of the live columns at the last check
    C = np.zeros_like(X) if _keeps_counts(g.n, g.m, width) else None  # A·Z, or None
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * width
    failures = 0
    G = gradient_columns(g, p, X)
    finite = _finite_columns(G)
    for t in range(1, iterations + 1):
        if not finite.all():
            failures += int((~finite).sum())
            cols = cols[finite]
            if cols.size == 0:
                break
            X, M1, M2, G, Z, C = _keep(finite, X, M1, M2, G, Z, C)
        X, moved = _adam_update(X, M1, M2, G, t, alpha)
        Znew = X > 0.0
        flips = Znew != Z
        changed = _per_column(np.logical_or, flips) if t > 1 else np.ones(cols.size, dtype=bool)
        if C is not None:
            _update_counts(g.adjacency_csr(), C, Znew, flips, changed)
        Z = Znew
        if changed.any():
            ok = np.zeros(cols.size, dtype=bool)
            counts = None if C is None else np.compress(changed, C, axis=1)
            ok[changed] = checker.fast_mis_check_batch(g, np.compress(changed, Z, axis=1), counts)
            if ok.any():
                for c in np.flatnonzero(ok):
                    j = int(cols[c])
                    found[j] = (start + j, tuple(int(v) for v in np.flatnonzero(Z[:, c])), t)
                live = ~ok
                cols = cols[live]
                if cols.size == 0:
                    break
                X, M1, M2, Z, C = _keep(live, X, M1, M2, Z, C)
                moved = moved[live]
                if not moved.all():  # else G is recomputed below
                    G = np.compress(live, G, axis=1)
        if t == iterations:
            break
        if moved.all():
            G = gradient_columns(g, p, X)
            finite = _finite_columns(G)
        else:
            finite = ~moved  # a kept gradient is finite: the others dropped with their columns
            if moved.any():
                fresh = gradient_columns(g, p, np.compress(moved, X, axis=1))
                G[:, moved] = fresh
                finite[moved] = _finite_columns(fresh)
    return found, failures, width


def _keeps_counts(n, m, width):
    """Whether a block keeps the check's neighbour counts; see COUNTS_MIN_DEGREE."""
    return 2 * m >= COUNTS_MIN_DEGREE * n and 2 * m * width >= COUNTS_MIN_ENTRIES


def _update_counts(A, C, Znew, D, hit):
    """Bring the neighbour counts C = A·Z to A·Znew in place; D is Znew != Z.

    hit marks the columns of D with a flip, or more of them: a marked column
    without one has no row to add and a product of it keeps its counts.

    C is a C-ordered float64 (n, k) matrix of integers. Each flipped node
    adds its adjacency row to its column's counts, or subtracts it, in
    slices of about C.size entries so that no transient array outgrows C.
    When more than 1/COUNTS_ENTRY_COST of the entries of the columns with
    a flip flipped, those columns get a product instead.
    """
    n, k = C.shape
    if np.count_nonzero(D) * COUNTS_ENTRY_COST > n * np.count_nonzero(hit):
        C[:, hit] = A.dot(np.compress(hit, Znew, axis=1).astype(np.float64))
        return
    flips = np.flatnonzero(D)  # node * k + column
    nodes, cols = np.divmod(flips, k)
    lens = A.indptr[nodes + 1] - A.indptr[nodes]
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    offsets = A.indptr[nodes] - ends + lens  # entry e of the flips' rows is A.indices[offset + e]
    weights = np.where(Znew.reshape(-1)[flips], 1.0, -1.0)
    cuts = [0, *np.searchsorted(ends, np.arange(C.size, total, C.size)).tolist(), flips.size]
    for a, b in zip(cuts, cuts[1:]):
        if a == b:
            continue
        ln = lens[a:b]
        pos = np.repeat(offsets[a:b], ln)
        pos += np.arange(ends[a] - lens[a], ends[b - 1])
        np.multiply(A.indices[pos], k, out=pos)  # flip into C: neighbour * k + column
        pos += np.repeat(cols[a:b], ln)
        np.add.at(C.reshape(-1), pos, np.repeat(weights[a:b], ln))


def _keep(mask, *arrays):
    """The columns of each array that mask selects, as C-ordered copies."""
    return [None if a is None else np.compress(mask, a, axis=1) for a in arrays]


def _finite_columns(G):
    """Mask of the columns of G whose entries are all finite."""
    return _per_column(np.logical_and, np.isfinite(G))


def _differs(A, B):
    """Mask of the columns in which two (n, k) matrices differ."""
    return _per_column(np.logical_or, A != B)


def _per_column(op, D):
    """op.reduce(D, axis=0) for a C-ordered boolean (n, k) matrix D, where
    op is np.logical_or (any) or np.logical_and (all).

    numpy reduces along axis 0 one k-wide row at a time. Folding 32 slabs
    of rows together first runs most of the reduction over long rows:
    about twice as fast at n = 1290, k = 32.
    """
    n, k = D.shape
    head = n - n % 32
    if k == 1 or head == 0:
        return op.reduce(D, axis=0)
    folded = op.reduce(op.reduce(D[:head].reshape(32, -1), axis=0).reshape(-1, k), axis=0)
    return op(op.reduce(D[head:], axis=0), folded)


def _adam_update(X, M1, M2, G, t, alpha):
    """One bias-corrected Adam step with clipping to the box.

    The one copy of the update: _run_block calls it on a block, adam_step
    on a single column. M1 and M2 advance in place; X and G are left
    unchanged, so the kernel can keep G for the columns that do not move.
    Returns the new iterate as a fresh array and the `moved` mask, which
    is true for every column in which the new iterate differs from X.
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
    V = M2 / (1.0 - BETA2**t)  # vhat
    np.sqrt(V, out=V)
    V += EPS
    T /= V
    np.subtract(X, T, out=V)
    np.clip(V, 0.0, 1.0, out=V)
    return V, _differs(V, X)


def _resolve_workers(workers) -> int:
    """The worker count to use: the CPU count when None; below 1 is bad input."""
    if workers is None:
        return os.cpu_count() or 1
    if int(workers) < 1:
        raise InputError(f"worker count must be at least 1, got {workers}")
    return int(workers)


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
    mean = initial_mean(g, cfg.init_scheme, cfg.mean)
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
            X = sample_block(g.n, mean, cfg.seed, span[0], span[1], cfg.eta)
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
    Each run is a width-1 block of the solver kernel; start k is
    initialization k of the random scheme. Useful for measuring how
    quickly an objective variant reaches fixed points.
    """
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    sizes: list[int] = []
    best: NodeSet | None = None
    used = 0
    while used < iterations:
        k = len(sizes)  # every run before this one certified
        X = sample_block(g.n, None, seed, k, k + 1)
        (item,), nfail, _ = _run_block(g, p, X, k, iterations - used, alpha)
        if nfail:
            raise NumericalError("non-finite gradient")
        if item is None:  # budget spent without a certificate
            break
        _, members, t = item
        used += t
        sizes.append(len(members))
        if best is None or len(members) > best.size:
            best = NodeSet(members)
    return ResampleOutcome(found_sizes=sizes, best=best, iterations=iterations)
