"""Batched projected Adam over the box [0,1]^n with per-run early stop.

Scheduling never touches numerics: starts are grouped in fixed 32-column
blocks whose spans depend only on the batch size, and each block's
starts and centre set depend only on its index, so every column sees
identical operands no matter how many workers run or in what order
blocks finish. solve() is therefore bitwise reproducible across worker
counts, which the test suite pins. Blocks are the unit of results; a
kernel call is the unit of work. solve() hands the kernel F consecutive
blocks of a batch as one wider call, F = max(1, min(RESTART_LAG //
processes, ceil(blocks per batch / processes))): up to 4 on one process,
up to 2 on two, 1 on three or more. That changes only speed, since each
column's arithmetic is width-invariant (below) and each block in a call
still starts around its own centre. Its workers are forked processes:
each call is a pure function of its blocks' spans and centre sets, the
seed and the config, so a worker inherits the graph and config at fork
and receives only the spans and the centres' members. solve() sets
every loaded OpenBLAS to one thread before it forks (the workers inherit
that) and restores the caller's count afterwards, so the worker count is
the one parallelism setting and two BLAS threads per worker never contend
for the same cores. It also keeps results independent of the caller's
BLAS thread count: on G(2000, 999500) a dense product on two threads
differed from the one-thread product in its last bits. run_resampling()
pins BLAS the same way.

The kernel works in KERNEL_DTYPE, float32 (graph.py): a block's starts
are drawn in float64 and cast once, into its columns of the call's
matrix, and the iterate, moments, products and gradients stay float32,
which halves the bytes of every product and every Adam update. The
certificate is exact in float32 all the same, since the check reads only
the zero pattern of the kernel's product (below). adam_step, like
objective.evaluate and gradient, works in float64.

Inside a call the kernel works on live columns only: a column that has
certified is dropped. Each iteration after the first is one of two
cases, told apart by one test of the whole call. In an idle one no
iterate entry changed (momentum often holds every column at a box
vertex), and only the Adam update runs. In a busy one the kernel takes
one product, P = A·X of every live column, and forms every gradient from
it, and if any support changed, it checks every live column, reading the
verdict off P: with X >= 0 and Z = X > 0, an entry of A·X is zero
exactly where the same entry of A·Z is, since each is a sum of
nonnegative terms, so the verdict is the one A·Z gives. Both cases are
exact. Each column's arithmetic is the same whatever the width of the
call it sits in, so a column that did not move gets back the product and
gradient it had, bit for bit, and dropping columns changes no result;
and the verdict is a pure function of the support, so a support that did
not change fails the check again. That holds on both product backends
(Graph.kernel_product): dense products run on blocks zero-padded to a
width that is a multiple of 16 (graph.DENSE_PAD), and a large CSR
product skips the all-zero rows of X, which adds only zeros. adam_step
is a width-1 call into the same update, in float64. run_resampling runs
its restarts as blocks of the same kernel, several starts to a block,
and reads them off in start order against its step budget; since a run's
path does not depend on the block it sits in or on its budget, only on
where it is cut off, the width of those blocks changes no result either.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import checker
from .checker import fast_mis_check, fast_mis_check_batch  # noqa: F401  (perfbench/tracer.py wraps these names)
from .errors import InputError, _as_float, _checked_count
from .graph import KERNEL_DTYPE, Graph, NodeSet
from .initialization import SCHEMES, initial_mean, sample_around, sample_block
from .objective import ObjectiveParams, _as_assignment, gradient, gradient_from_product
from .objective import gradient_columns  # noqa: F401  (perfbench/tracer.py wraps these names)

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

# Width of run_resampling's first block, before any run has certified and
# so before any pace is known. Only speed depends on it, never results,
# which is why one value serves every graph. Runs past the stopping point
# are computed for nothing, up to the end of the budget, so wider is not
# better: on G(100, 2475) with 10,000 steps, where the arms without the
# complement term certify twice, first widths of 4, 8, 12 and 16 took
# 1.21, 1.11, 1.25 and 1.68 s over eight such arms (2-core x86 box).
RESTART_FIRST_WIDTH = 8


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

    gamma is a resolved value here; resolve_config derives it, with the
    rest of a preset, from a graph. init_scheme draws the starts of the
    first batch; solve() draws later ones around the best set so far.
    mean goes with the external-mean scheme only, and solve checks its
    length against the graph. This is the one place the solver settings
    are checked, for type and range (InputError; InvalidGamma, from
    ObjectiveParams, for gamma's range), each so that NaN fails it.
    Numbers are stored as Python int and float, numpy ones included, and
    the mean as a tuple of floats, so configs compare and hash by value.
    The fields are the one list of the settings: suites, the CLI
    overrides and the report's config derive from them. gamma and alpha
    must also round to finite numbers in KERNEL_DTYPE, the kernel's
    arithmetic (InputError; alpha through _checked_alpha).
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
    mean: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("gamma", "eta", "time_limit"):
            value = getattr(self, name)
            if value is not None or name != "time_limit":
                object.__setattr__(self, name, _as_float(name, value))
        object.__setattr__(self, "alpha", _checked_alpha(self.alpha))
        if not isinstance(self.complement_term_enabled, bool):
            raise InputError(f"complement_term_enabled must be a bool, got {self.complement_term_enabled!r}")
        for name, floor in (("iterations", 1), ("batch_size", 1), ("batch_count", 1), ("seed", 0)):
            object.__setattr__(self, name, _checked_count(name, getattr(self, name), floor))
        if self.time_limit is not None and not self.time_limit > 0.0:
            raise InputError(f"time_limit must be positive when set, got {self.time_limit}")
        if self.init_scheme not in SCHEMES:
            raise InputError(f"unknown init_scheme {self.init_scheme!r}; pick one of {SCHEMES}")
        if not 0.0 <= self.eta < np.inf:  # sqrt(inf) times a zero draw is NaN
            raise InputError(f"eta must be non-negative and finite, got {self.eta}")
        if (self.mean is not None) != (self.init_scheme == "external-mean"):
            raise InputError("a mean vector is given if and only if init_scheme is 'external-mean'")
        if self.mean is not None:
            try:
                m = np.array(self.mean, dtype=np.float64)
            except (TypeError, ValueError):
                m = None
            if m is None or m.ndim != 1 or not ((m >= 0.0) & (m <= 1.0)).all():
                raise InputError("mean must be a vector with entries in [0, 1]")
            object.__setattr__(self, "mean", tuple(m.tolist()))
        self.params()
        _require_kernel_number("gamma", self.gamma)

    def params(self) -> ObjectiveParams:
        return ObjectiveParams(self.gamma, self.complement_term_enabled)


def _checked_alpha(alpha) -> float:
    """alpha as a Python float: a number and not a bool, positive, and
    finite in KERNEL_DTYPE (InputError). The one alpha check of
    SolverConfig, run_resampling and adam_step; on a given graph
    _require_finite_arithmetic bounds alpha further."""
    alpha = _as_float("alpha", alpha)
    if not alpha > 0.0:
        raise InputError(f"alpha must be positive, got {alpha}")
    _require_kernel_number("alpha", alpha)
    return alpha


def _require_kernel_number(name: str, value: float) -> None:
    """InputError where value rounds to an infinity in KERNEL_DTYPE."""
    if _overflows_kernel(value):
        raise InputError(
            f"{name} must be at most {float(np.finfo(KERNEL_DTYPE).max):.4g}, the largest "
            f"{np.dtype(KERNEL_DTYPE).name} (the solver's arithmetic), got {value}"
        )


def _overflows_kernel(x: float) -> bool:
    """Whether x rounds to an infinity in KERNEL_DTYPE."""
    with np.errstate(over="ignore"):
        return bool(np.isinf(KERNEL_DTYPE(x)))


def _require_finite_arithmetic(g: Graph, p: ObjectiveParams, alpha: float) -> None:
    """Raise InputError where the kernel's arithmetic can overflow on g.

    gamma must be finite in KERNEL_DTYPE, and with b = (gamma + 1)
    max_degree + n + 1, so must 4 b^2 and 4 alpha b / EPS. Then no kernel
    iteration (_run_block, _adam_update) produces an infinity, for every
    intermediate is bounded, up to rounding, which the margin of four
    covers:

    * the starts are finite and lie in the box: uniform draws, or draws
      around a centre in the box with a finite eta, clipped to it;
    * 0 <= P = A·X <= max_degree, a sum of at most max_degree entries of
      [0, 1], and 0 <= each column sum <= n (where max_degree is 0, P is
      0 and its product with gamma + 1, finite in KERNEL_DTYPE, is 0);
    * |G| <= b, from G = (gamma + 1) P - sum(X) + X - 1, or gamma P - 1;
    * |M1| <= b and |mhat| <= b, the first a damped sum and the second a
      weighted mean of gradient entries;
    * 0 <= M2 <= b^2 and 0 <= vhat <= b^2, the same of their squares,
      and (1 - BETA2) G G <= b^2; as M2 >= 0, sqrt sees no negative;
    * sqrt(vhat) + EPS >= EPS, so nothing is divided by zero;
    * |alpha mhat| <= alpha b / EPS and so is the step, alpha mhat
      divided by at least EPS;
    * X - step is finite, and clipping returns it to the box, so the next
      iteration starts from the box again.

    With no infinity there is no NaN either: inf - inf, 0 inf and inf /
    inf each need one, 0 / 0 a zero divisor, and sqrt a negative operand.
    So no run goes non-finite, and the kernel does not test for it. Past
    either bound a run could stall or go non-finite because of its
    settings, not of the arithmetic: bad input.
    """
    _require_kernel_number("gamma", p.gamma)
    bound = (p.gamma + 1.0) * g.max_degree + g.n + 1.0
    if _overflows_kernel(4.0 * bound * bound):
        raise InputError(
            f"gamma {p.gamma} overflows {np.dtype(KERNEL_DTYPE).name} (the solver's arithmetic) on this "
            f"graph: with its largest degree {g.max_degree} and {g.n} nodes, gradients reach {bound:.4g}, "
            f"and the Adam update squares them"
        )
    if _overflows_kernel(4.0 * alpha * bound / EPS):
        raise InputError(
            f"alpha {alpha} overflows {np.dtype(KERNEL_DTYPE).name} (the solver's arithmetic) on this "
            f"graph: gradients reach {bound:.4g}, and the Adam step multiplies their mean by alpha and "
            f"divides it by as little as {EPS}"
        )


@dataclass
class SolveReport:
    best: NodeSet | None
    best_size: int
    mis_found_count: int
    runs_completed: int
    wall_time_ms: float
    trace: list[tuple[float, int]] = field(default_factory=list)
    config: SolverConfig | None = None
    n: int = 0
    m: int = 0
    source: str = ""
    backend: str = ""  # the graph's product backend, "dense" or "csr"
    # always 0, as no run goes non-finite (_require_finite_arithmetic); a
    # class attribute, kept for the report's format
    numerical_failures: ClassVar[int] = 0


def adam_step(g: Graph, p: ObjectiveParams, x, st: AdamState, alpha: float) -> np.ndarray:
    """One bias-corrected Adam update followed by a box projection.

    The kernel's update (_adam_update) on x as a single column; st is
    advanced in place and x is left unchanged. Raises InputError for an
    alpha SolverConfig would refuse, a gamma or alpha whose arithmetic
    overflows on g as in solve() (_require_finite_arithmetic), and an x
    outside the box [0,1]^n, NaN included; so from a fresh state no
    step goes non-finite.
    """
    alpha = _checked_alpha(alpha)
    _require_finite_arithmetic(g, p, alpha)
    x = _as_assignment(g, x)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise InputError("x must lie in the box [0, 1]^n")
    grad = gradient(g, p, x)
    st.step += 1
    X, _ = _adam_update(x[:, None], st.m1[:, None], st.m2[:, None], grad[:, None], st.step, alpha)
    return X[:, 0]


def _run_block(g, p, X, start, iterations, alpha):
    """Evolve the starts in the columns of X together; the solver kernel.

    Column j is initialization start + j. Returns (found, 0, width) where
    found[j] is None or (init index, member tuple, iteration). X is left
    unchanged; the kernel runs on a KERNEL_DTYPE copy of it.

    Work goes to live columns only: a column that certifies is dropped
    from every matrix the kernel still reads, and `cols` maps each
    remaining column back to its place in X. Z is the support of the live
    columns at the last check. Each iteration after the first is one of
    two cases, told apart by one test of the whole block:

    * idle: no iterate entry changed. Only the Adam update runs: the
      gradient is the one it had, and no support changed.
    * busy: some entry changed. Every live column gets a new product P
      and, unless it is the last iteration, a new gradient formed from
      P. If some support changed since the last check, every live column
      is checked, off P.

    The first iteration is busy and checks, as nothing has been checked
    yet. Both cases are exact. kernel_product and gradient_from_product
    are width-invariant bit for bit, so a column that did not move gets
    the product and gradient it had, and no result depends on which
    other columns are still live or on scheduling. The check is a pure
    function of the support (P has the zero pattern of A·Z), so a column
    whose support did not change fails it again.
    """
    width = X.shape[1]
    X = np.array(X, dtype=KERNEL_DTYPE, order="C")
    M1 = np.zeros_like(X)
    M2 = np.zeros_like(X)
    cols = np.arange(width)
    k = width  # live columns, cols.size
    Z = np.zeros(X.shape, dtype=bool)  # support of the live columns at the last check
    found: list[tuple[int, tuple[int, ...], int] | None] = [None] * width
    G = gradient_from_product(p, X, g.kernel_product(X))
    for t in range(1, iterations + 1):
        X, moved = _adam_update(X, M1, M2, G, t, alpha)
        if not moved and t > 1:
            continue  # idle
        P = g.kernel_product(X)
        S = X > 0.0
        if t == 1 or (S != Z).any():
            Z = S
            ok = checker.fast_mis_check_batch(g, Z, P)
            nok = np.count_nonzero(ok)
            if nok:
                for c in np.flatnonzero(ok):
                    j = int(cols[c])
                    found[j] = (start + j, tuple(np.flatnonzero(Z[:, c]).tolist()), t)
                if nok == k:
                    break
                live = ~ok
                cols = cols[live]
                k -= nok
                X, M1, M2, Z, P = _keep(live, X, M1, M2, Z, P)
        if t == iterations:
            break
        G = gradient_from_product(p, X, P)
    # a constant 0 in the middle, because perfbench/tracer.py unpacks three values
    return found, 0, width


def _keep(mask, *arrays):
    """The columns of each array that mask selects, as C-ordered copies."""
    return [np.compress(mask, a, axis=1) for a in arrays]


def _adam_update(X, M1, M2, G, t, alpha):
    """One bias-corrected Adam step with clipping to the box, in the dtype
    of X and the moments (the constants are Python floats, which take it).

    The one copy of the update: _run_block calls it on a float32 block,
    adam_step on a single float64 column. M1 and M2 advance in place; X
    and G are left unchanged.
    Returns the new iterate as a fresh array and whether any of its
    entries differs from X.
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
    V.clip(0.0, 1.0, out=V)
    return V, bool((V != X).any())


def _resolve_workers(workers) -> int:
    """The worker count to use: the CPUs this process may run on when None;
    anything but an integer >= 1 is bad input."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return _checked_count("worker count", workers, 1)


# What a kernel call depends on besides its blocks: (g, p, cfg, mean,
# deadline). Set in each pool worker by _start_worker; a forked worker
# inherits the objects, so none of them is pickled.
_context: tuple | None = None


def _start_worker(*context) -> None:
    global _context
    _context = context


def _worker_block(blocks):
    return _block(*_context, blocks)


def _block(g, p, cfg, mean, deadline, blocks):
    """Run consecutive blocks as one kernel call. blocks lists (span,
    members) in index order, the spans adjacent: each block's starts are
    drawn around the set `members`, or from cfg.init_scheme's mean when
    members is None, into its own columns of one KERNEL_DTYPE matrix.
    Returns _run_block's (found, 0, width) for the whole call, or
    None if the call would start after the deadline."""
    if deadline is not None and time.perf_counter() >= deadline:
        return None
    lo, hi = blocks[0][0][0], blocks[-1][0][1]
    X = np.empty((g.n, hi - lo), dtype=KERNEL_DTYPE)
    for (a, b), members in blocks:
        if members is None:
            X[:, a - lo:b - lo] = sample_block(g.n, mean, cfg.seed, a, b, cfg.eta)
        else:
            centre = np.zeros(g.n)
            centre[list(members)] = 1.0
            X[:, a - lo:b - lo] = sample_around(centre, RESTART_ETA, cfg.seed, a, b)
    return _run_block(g, p, X, lo, cfg.iterations, cfg.alpha)


@functools.cache
def _openblas_threads():
    """(get, set) pairs for the thread count of each OpenBLAS library this
    process has loaded, found by file name in /proc/self/maps; none where
    that file does not exist.

    Looked up once per process, since reading the map takes about 0.5 ms:
    the library numpy multiplies with is loaded with numpy, before this
    module is imported.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # address, permissions, offset, device, inode, path
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line.lower()}
    except OSError:
        return []
    pairs = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        # the C functions, whose names builds decorate with a prefix and a
        # suffix; names ending "_64_" are the Fortran ones, which take pointers
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pairs.append((get, put))
                break
    return pairs


@contextmanager
def _one_blas_thread():
    """Set every loaded OpenBLAS to one thread for the body, and restore
    each library's own count when it returns or raises. Nothing happens
    where no OpenBLAS is loaded."""
    pairs = _openblas_threads()
    saved = [(put, get()) for get, put in pairs]
    for put, _ in saved:
        put(1)
    try:
        yield
    finally:
        for put, count in saved:
            put(count)


def _pool(processes, context):
    """A fork pool of `processes` workers that hold context, or a null
    context (calls run in-process) for one process or where fork does not
    exist."""
    if processes == 1 or "fork" not in multiprocessing.get_all_start_methods():
        return nullcontext()
    return ProcessPoolExecutor(
        processes, multiprocessing.get_context("fork"), initializer=_start_worker, initargs=context
    )


def solve(g: Graph, cfg: SolverConfig, workers: int | None = None, source: str = "") -> SolveReport:
    """Run batch_size * batch_count initializations and keep the largest set.

    Batches run sequentially. The first batch starts from cfg.init_scheme
    and all its blocks run concurrently. Later blocks start around the best
    set of earlier blocks (see RESTART_LAG), so at most RESTART_LAG of them
    run at once. Results are merged block by block in initialization
    order, so equal-size sets resolve to the lowest initialization index,
    and the parent keeps the best set after each merged block: the centre
    of block j of a batch is the one after its blocks 0..j-RESTART_LAG.

    Blocks run on min(workers, blocks per batch) processes forked at the
    first call and joined before solve returns or raises; they share the
    parent's pages copy-on-write. Each kernel call takes F consecutive
    blocks of one batch (see the module docstring; the last call of a
    batch may take fewer), and a call after the first batch starts once
    the blocks its last block's centre needs are merged. With two
    processes, call g of such a batch waits only on calls g-2 and before,
    so both stay busy. With one process, or where fork does not exist, the
    same loop runs every call in this process. Either way the calls' BLAS
    products take one thread (see _one_blas_thread).

    The optional time limit is checked before every batch and before
    every kernel call starts: a call that would start after the deadline
    is skipped and its blocks are not counted, but a started call always
    finishes, so a solve can overrun the limit by up to one call's run
    time, a call being at most RESTART_LAG blocks. Raises
    InputError for a gamma whose gradients, or their squares in the Adam
    update, overflow on g, or an alpha whose Adam step does
    (_require_finite_arithmetic).
    """
    t0 = time.perf_counter()
    p = cfg.params()
    _require_finite_arithmetic(g, p, cfg.alpha)
    mean = initial_mean(g, cfg.init_scheme, cfg.mean)
    g.adjacency()  # build the kernel's operator once, before the workers fork
    # the spans of a batch's blocks, counted from its first initialization
    chunks = [(s, min(s + CHUNK, cfg.batch_size)) for s in range(0, cfg.batch_size, CHUNK)]
    processes = min(_resolve_workers(workers), len(chunks))
    fuse = max(1, min(RESTART_LAG // processes, -(-len(chunks) // processes)))  # blocks per kernel call
    best: NodeSet | None = None
    found_count = 0
    completed = 0
    trace: list[tuple[float, int]] = []
    bests: list[NodeSet | None] = []  # bests[k]: best once k blocks of the batch are merged

    deadline = None if cfg.time_limit is None else t0 + cfg.time_limit
    context = (g, p, cfg, mean, deadline)

    def merge(call):
        nonlocal best, found_count, completed
        future, spans = call
        lo = spans[0][0]
        found = [None] * (spans[-1][1] - lo)
        result = future.result()
        if result is not None:  # else skipped at the deadline
            found, _, width = result
            completed += width
        for a, b in spans:  # index order
            for item in found[a - lo:b - lo]:
                if item is None:
                    continue
                _, members, _ = item
                found_count += 1
                if best is None or len(members) > best.size:
                    best = NodeSet(members)
            bests.append(best)

    with _one_blas_thread(), _pool(processes, context) as pool:

        def start(call) -> Future:
            if pool is not None:
                return pool.submit(_worker_block, call)
            done: Future = Future()
            done.set_result(_block(*context, call))
            return done

        in_flight: deque[tuple[Future, list]] = deque()
        try:
            for b in range(cfg.batch_count):
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                lo = b * cfg.batch_size
                bests[:] = [best]
                for i in range(0, len(chunks), fuse):
                    spans = [(lo + s, lo + e) for s, e in chunks[i:i + fuse]]
                    centres = [None] * len(spans)
                    if b > 0:
                        # block j starts around the best set of blocks
                        # 0..j-RESTART_LAG of its batch: merge calls in index
                        # order until the call's last block has its centre
                        while len(bests) <= i + len(spans) - RESTART_LAG:
                            merge(in_flight.popleft())
                        centres = [bests[max(0, j - RESTART_LAG + 1)] for j in range(i, i + len(spans))]
                    call = [(span, None if c is None else c.members) for span, c in zip(spans, centres)]
                    in_flight.append((start(call), spans))
                while in_flight:
                    merge(in_flight.popleft())
                elapsed_ms = (time.perf_counter() - t0) * 1000.0
                trace.append((elapsed_ms, 0 if best is None else best.size))
        except BaseException:
            for f, _ in in_flight:  # leave only started calls for the join
                f.cancel()
            raise
    return SolveReport(
        best=best,
        best_size=0 if best is None else best.size,
        mis_found_count=found_count,
        runs_completed=completed,
        wall_time_ms=(time.perf_counter() - t0) * 1000.0,
        trace=trace,
        config=cfg,
        n=g.n,
        m=g.m,
        source=source,
        backend=g.backend,
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
    state resets. The budget counts total gradient steps across restarts:
    run k gets what runs 0..k-1 left, and the loop ends at the first run
    that does not certify within it. Start k is initialization k of the
    random scheme, and BLAS runs on one thread as in solve(). Useful for
    measuring how quickly an objective variant reaches fixed points.

    Runs k..k+w-1 go to the solver kernel as one block of width w
    (_restart_width) with all of the budget left at run k, and are read
    off in start order against it: a run that certified within what the
    runs before it left is recorded, and the first one that did not ends
    the loop. That gives what one run per block would, bit for bit:
    start k is the same draw in any block, each column's arithmetic does
    not depend on the block's width, and a run's path does not depend on
    its budget, only where it is cut off. Raises InputError for an alpha
    that SolverConfig would refuse, a budget that is not an integer >= 0,
    and a gamma or alpha whose arithmetic overflows on g, as solve() does
    (_require_finite_arithmetic).
    """
    alpha = _checked_alpha(alpha)
    iterations = _checked_count("iterations", iterations)
    _require_finite_arithmetic(g, p, alpha)
    sizes: list[int] = []
    best: NodeSet | None = None
    used = 0
    with _one_blas_thread():
        while used < iterations:
            k = len(sizes)  # every run before this one certified
            width = _restart_width(iterations - used, used, k)
            X = sample_block(g.n, None, seed, k, k + width)
            found, _, _ = _run_block(g, p, X, k, iterations - used, alpha)
            for item in found:
                if item is None or item[2] > iterations - used:  # the budget ends in this run
                    return ResampleOutcome(found_sizes=sizes, best=best, iterations=iterations)
                _, members, t = item
                used += t
                sizes.append(len(members))
                if best is None or len(members) > best.size:
                    best = NodeSet(members)
    return ResampleOutcome(found_sizes=sizes, best=best, iterations=iterations)


def _restart_width(left, used, certified):
    """How many runs run_resampling starts in its next block, given the
    steps left, the steps used and the runs certified so far.

    About the runs the rest of the budget certifies at the mean pace so
    far, clamped to 1..CHUNK; RESTART_FIRST_WIDTH before any certified.
    Scheduling only: results are the same for every width.
    """
    if certified == 0:
        return RESTART_FIRST_WIDTH
    return max(1, min(CHUNK, left * certified // used))
