"""Per-layer tracing of one quadmis solve, from outside the package.

quadmis.optimizer and quadmis.checker import the functions they call by
name, so the tracer replaces those module-level names with timing
wrappers while it is installed and puts the originals back afterwards.
Each call becomes a span (id, parent, name, start, end, thread); spans
stay in memory and are written out once, at the end of the run. Totals
are kept under a lock, since solve() runs blocks on a thread pool.

Inside a block the check wrapper also compares each thresholded matrix
Z with the one before it, to count how many checks of not-yet-certified
columns saw a changed support. That bookkeeping is timed and left out of
the kernel's self time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from quadmis import checker, optimizer

# (module, bound name, span name). The width-1 check's and the batched
# check's own products are the checker's bindings; the update's products
# are the optimizer's.
PATCHES = (
    (optimizer, "_run_block", "optimizer.run_block"),
    (optimizer, "gradient_columns", "objective.gradient_columns"),
    (optimizer, "fast_mis_check_batch", "checker.fast_mis_check_batch"),
    (optimizer, "sample_block", "initialization.sample_block"),
    (optimizer, "sample_around", "initialization.sample_around"),
    (optimizer, "adam_step", "optimizer.adam_step"),
    (optimizer, "gradient", "objective.gradient"),
    (optimizer, "fast_mis_check", "checker.fast_mis_check"),
    (checker, "gradient_columns", "checker.product"),
    (checker, "gradient", "checker.product"),
)

SPAN_CAP = 100_000


class _Block:
    """State of one _run_block call, private to the thread running it."""

    def __init__(self, width: int):
        self.certified = np.zeros(width, dtype=bool)
        self.prev: np.ndarray | None = None
        self.checks = 0
        self.live = 0
        self.changed = 0
        self.bookkeeping = 0.0


class Tracer:
    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._t0 = time.perf_counter()
        self.root: int | None = None  # span of the operation now running
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.cols: dict[str, int] = defaultdict(int)
        self.flops = 0
        self.live_checks = 0
        self.changed_checks = 0
        self.bookkeeping = 0.0
        self.col_iters = 0
        self.live_col_iters = 0
        self.exhausted = 0
        self.certify_iters: list[int] = []

    # ---- spans ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _leave(self, sid, parent, name, start, cols=0, flops=0) -> float:
        end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.calls[name] += 1
            self.secs[name] += end - start
            self.cols[name] += cols
            self.flops += flops
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, name, start - self._t0, end - self._t0, threading.get_ident()))
            else:
                self.dropped += 1
        return end

    @contextmanager
    def operation(self, name: str):
        """Span around one call from the benchmark into the program."""
        sid, parent, start = self._enter()
        self.root = sid
        try:
            yield
        finally:
            self.root = None
            self._leave(sid, parent, name, start)

    # ---- wrappers ---------------------------------------------------------

    def _plain(self, fn, name, cols_of=None):
        def traced(*args, **kwargs):
            sid, parent, start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(sid, parent, name, start, cols_of(args) if cols_of else 0)

        return traced

    def _product(self, fn, name):
        def traced(g, p, X):
            sid, parent, start = self._enter()
            try:
                return fn(g, p, X)
            finally:
                width = X.shape[1]
                end = self._leave(sid, parent, name, start, width, 2 * g.indices.size * width)
                self._charge(end)

        return traced

    def _check_batch(self, fn, name):
        def traced(g, p, Z):
            sid, parent, start = self._enter()
            try:
                ok = fn(g, p, Z)
            finally:
                end = self._leave(sid, parent, name, start, Z.shape[1])
            blk = getattr(self._local, "block", None)
            if blk is not None:
                live = ~blk.certified
                changed = live if blk.prev is None else live & (Z != blk.prev).any(axis=0)
                blk.live += int(live.sum())
                blk.changed += int(changed.sum())
                blk.prev = Z
                blk.certified |= ok
                blk.checks += 1
            self._charge(end)
            return ok

        return traced

    def _charge(self, since: float) -> None:
        """Book the time since `since` as tracing work of the current block."""
        blk = getattr(self._local, "block", None)
        if blk is not None:
            blk.bookkeeping += time.perf_counter() - since

    def _run_block(self, fn, name):
        def traced(g, p, X, start, iterations, alpha):
            blk = self._local.block = _Block(X.shape[1])
            sid, parent, t0 = self._enter()
            try:
                found, failures, width = fn(g, p, X, start, iterations, alpha)
            finally:
                self._local.block = None
                self._leave(sid, parent, name, t0, X.shape[1])
            its = [item[2] for item in found if item is not None]
            open_cols = width - len(its)
            with self._lock:
                self.live_checks += blk.live
                self.changed_checks += blk.changed
                self.bookkeeping += blk.bookkeeping
                self.col_iters += width * blk.checks
                self.live_col_iters += sum(its) + open_cols * blk.checks
                self.exhausted += open_cols - failures
                self.certify_iters.extend(its)
            return found, failures, width

        return traced

    @contextmanager
    def installed(self):
        special = {
            "optimizer.run_block": self._run_block,
            "objective.gradient_columns": self._product,
            "checker.fast_mis_check_batch": self._check_batch,
        }
        span_cols = lambda args: args[4] - args[3]  # sample_*(..., start, stop)
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCHES]
        try:
            for mod, attr, name in PATCHES:
                fn = getattr(mod, attr)
                if name in special:
                    wrapped = special[name](fn, name)
                elif name.startswith("initialization."):
                    wrapped = self._plain(fn, name, span_cols)
                else:
                    wrapped = self._plain(fn, name)
                setattr(mod, attr, wrapped)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    # ---- results ----------------------------------------------------------

    def layer_metrics(self, rounds: int, workers: int) -> dict[str, tuple[float, str]]:
        """Per-round layer figures of the traced rounds, with their units."""
        k = float(rounds)
        s = lambda name: self.secs[name] / k
        c = lambda name: self.calls[name] / k
        per = lambda name, scale: self.secs[name] / self.cols[name] * scale if self.cols[name] else 0.0
        per_call = lambda name: self.secs[name] / self.calls[name] * 1e6 if self.calls[name] else 0.0
        gc, cb = "objective.gradient_columns", "checker.fast_mis_check_batch"
        busy = s("optimizer.run_block") + s("initialization.sample_block") + s("initialization.sample_around")
        solve_wall = s("optimizer.solve")
        iters = np.asarray(self.certify_iters, dtype=np.float64)
        pct = lambda q: float(np.percentile(iters, q)) if iters.size else 0.0
        return {
            f"{gc}_calls": (c(gc), "count"),
            f"{gc}_cols": (self.cols[gc] / k, "count"),
            f"{gc}_s": (s(gc), "s"),
            f"{gc}_us_per_col": (per(gc, 1e6), "us"),
            f"{gc}_gflop_per_s": (self.flops / self.secs[gc] / 1e9 if self.secs[gc] else 0.0, "GFLOP/s"),
            f"{cb}_calls": (c(cb), "count"),
            f"{cb}_cols": (self.cols[cb] / k, "count"),
            f"{cb}_s": (s(cb), "s"),
            f"{cb}_us_per_col": (per(cb, 1e6), "us"),
            "checker.product_s": (s("checker.product"), "s"),
            "checker.live_checks": (self.live_checks / k, "count"),
            "checker.changed_support_share": (
                self.changed_checks / self.live_checks if self.live_checks else 0.0, "ratio"),
            "optimizer.run_block_calls": (c("optimizer.run_block"), "count"),
            "optimizer.run_block_s": (s("optimizer.run_block"), "s"),
            "optimizer.run_block_self_s": (
                s("optimizer.run_block") - s(gc) - s(cb) - self.bookkeeping / k, "s"),
            "optimizer.col_iters": (self.col_iters / k, "count"),
            "optimizer.live_col_share": (
                self.live_col_iters / self.col_iters if self.col_iters else 0.0, "ratio"),
            "optimizer.iters_to_certify_p50": (pct(50), "iter"),
            "optimizer.iters_to_certify_p90": (pct(90), "iter"),
            "optimizer.runs_exhausted": (self.exhausted / k, "count"),
            "initialization.sample_block_s": (s("initialization.sample_block"), "s"),
            "initialization.sample_block_cols": (self.cols["initialization.sample_block"] / k, "count"),
            "initialization.sample_around_s": (s("initialization.sample_around"), "s"),
            "initialization.sample_around_cols": (self.cols["initialization.sample_around"] / k, "count"),
            "optimizer.pool_idle_s": (workers * solve_wall - busy if solve_wall else 0.0, "s"),
            "trace.workers_x_solve_s": (workers * solve_wall, "s"),
            "trace.bookkeeping_s": (self.bookkeeping / k, "s"),
            "optimizer.adam_step_calls": (c("optimizer.adam_step"), "count"),
            "optimizer.adam_step_us": (per_call("optimizer.adam_step"), "us"),
            "objective.gradient_calls": (c("objective.gradient"), "count"),
            "objective.gradient_s": (s("objective.gradient"), "s"),
            "checker.fast_mis_check_calls": (c("checker.fast_mis_check"), "count"),
            "checker.fast_mis_check_us": (per_call("checker.fast_mis_check"), "us"),
            "optimizer.run_resampling_s": (s("optimizer.run_resampling"), "s"),
        }

    def write(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["fields"] = ["id", "parent", "name", "start_s", "end_s", "thread"]
        doc["dropped"] = self.dropped
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
