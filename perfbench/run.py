#!/usr/bin/env python3
"""Benchmark of the quadmis solver: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload er700 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; quadmis is imported from its
src/ directory. The run

1. makes the workload's instances from --seed, with the benchmark's own
   copy of every edge set;
2. sets them up several times (generate or parse, build the adjacency,
   resolve the configuration) and keeps the median as setup_s;
3. solves the first instance once with one worker, which also warms up;
4. repeats whole rounds (every operation of every instance, two workers)
   until --seconds have passed, at least one round, and times the
   workload's reference kernel (workloads.Reference) before the first
   round and after every round.

The shared machine's speed drifts by up to 1.7 times over minutes, so the
timed metrics divide each round's wall time by the mean of the two
reference times around it: solve_rel is the median of that ratio, in
units of one reference run ("ref"). Raw wall times are printed on the
lines before the result.

Every operation's output is checked against the benchmark's own edges,
and must repeat exactly in every round and with one worker. With
--trace 1 the rounds alternate untraced and traced, and the per-layer
figures of the traced rounds are printed instead of the end-to-end ones;
their spans go to perfbench/out/.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKERS = 2
# Set-up is repeated at least SETUP_REPS times and until SETUP_MIN_S
# seconds have gone into it (at most SETUP_MAX_REPS times); setup_s is
# the median, so short set-ups are still timed over many repetitions.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 50
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
        return not problems


def run_op(op, workers, reference, i, tally, tracer=None):
    """Call one operation and check it; returns (seconds, summary, output).

    summary and output are None when the operation failed.
    """
    name = "optimizer.solve" if op.uses_workers else "optimizer.run_resampling"
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run(workers)
        else:
            with tracer.operation(name):
                out = op.run(workers)
    except Exception as exc:  # a raising operation is a failed one
        tally.record(op.label, [f"{type(exc).__name__}: {exc}"])
        return time.perf_counter() - t0, None, None
    dt = time.perf_counter() - t0
    problems = op.check(out)
    summary = op.summary(out)
    if reference[i] is None:
        reference[i] = summary[2]
    elif summary[2] != reference[i]:
        problems.append(f"result differs from an earlier call of the same operation (workers={workers})")
    if not tally.record(op.label, problems):
        return dt, None, None
    return dt, summary, out


def run_round(ops, reference, tally, tracer=None):
    """Every operation once with WORKERS workers: (seconds, best, certified, outputs)."""
    total, best, certified, outs = 0.0, 0, 0, []
    for i, op in enumerate(ops):
        dt, summary, out = run_op(op, WORKERS, reference, i, tally, tracer)
        total += dt
        if summary is not None:
            best += summary[0]
            certified += summary[1]
            outs.append(out)
    return total, best, certified, outs


def batch_figures(reports):
    """Mean batches run, and mean last batch (1-based) that grew the best set."""
    runs, gains = [], []
    for rep in reports:
        best, last = 0, 0
        for b, (_, size) in enumerate(rep.trace, start=1):
            if size > best:
                best, last = size, b
        runs.append(len(rep.trace))
        gains.append(last)
    return (statistics.fmean(runs), statistics.fmean(gains)) if runs else (0.0, 0.0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "quadmis" / "__init__.py").is_file():
        print(f"no quadmis sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    instances = work.instances(args.seed)
    try:
        return measure(args, work, instances)
    finally:
        work.cleanup(instances)


def measure(args, work, instances) -> int:
    from workloads import WORK_DIR, Parts, graph_problems

    correct = True
    setup_s, parts = [], []
    while len(setup_s) < SETUP_REPS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        p = Parts()
        t0 = time.perf_counter()
        built = [work.setup(inst, p) for inst in instances]
        setup_s.append(time.perf_counter() - t0)
        parts.append(p)
    for inst, b in zip(instances, built):
        for problem in graph_problems(inst, b.graph):
            print(f"INCORRECT {problem}", file=sys.stderr)
            correct = False
    ops = [op for b in built for op in b.ops]
    reference = [None] * len(ops)
    tally = Tally()

    # One-worker solve of the first operation: the plain single-thread
    # baseline, a warm-up, and the reference the two-worker rounds must match.
    workers1_s = 0.0
    if ops[0].uses_workers:
        workers1_s, _, _ = run_op(ops[0], 1, reference, 0, tally)

    gauge = work.reference()
    gauge.time()  # warm-up
    ref_s = [gauge.time()]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    rounds = {False: [], True: []}  # traced -> [(seconds, best, certified, reference seconds)]
    traced_reports = []
    t_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds[True]) < len(rounds[False])
        if traced:
            with tracer.installed():
                total, best, certified, reports = run_round(ops, reference, tally, tracer)
            traced_reports.extend(reports)
        else:
            total, best, certified, reports = run_round(ops, reference, tally)
        ref_s.append(gauge.time())
        rounds[traced].append((total, best, certified, (ref_s[-2] + ref_s[-1]) / 2))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(r[0] + r[3] for r in rounds[traced])
        if elapsed + typical > args.seconds and (tracer is None or rounds[True]):
            break

    plain = rounds[False]
    if tally.failed == tally.attempted:
        correct = False
    solve_s = statistics.median(r[0] for r in plain)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "solve_rel": (statistics.median(r[0] / r[3] for r in plain), "ref"),
            "best_size": (float(plain[0][1]), "nodes"),
            "certified_per_ref": (statistics.median(r[2] * r[3] / r[0] for r in plain), "1/ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced_s = statistics.median(r[0] for r in rounds[True])
        metrics = tracer.layer_metrics(len(rounds[True]), WORKERS if ops[0].uses_workers else 1)
        for layer in ("generators.gen", "graph_io.load_graph", "graph.adjacency_csr", "bench.resolve_config"):
            metrics[f"{layer}_s"] = (statistics.median(p.get(layer, 0.0) for p in parts), "s")
        batches_run, last_gain = batch_figures(traced_reports[: len(ops)] if ops[0].uses_workers else [])
        metrics["optimizer.batches_run"] = (batches_run, "batch")
        metrics["optimizer.last_gain_batch"] = (last_gain, "batch")
        metrics["optimizer.solve_workers1_s"] = (workers1_s, "s")
        metrics["trace.solve_s"] = (traced_s, "s")
        metrics["trace.untraced_solve_s"] = (solve_s, "s")
        metrics["bench.reference_s"] = (statistics.median(ref_s), "s")
        metrics["trace.overhead_s"] = (traced_s - solve_s, "s")
        WORK_DIR.mkdir(exist_ok=True)
        tracer.write(
            WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json",
            {
                "workload": args.workload,
                "seed": args.seed,
                "traced_rounds": len(rounds[True]),
                "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
                "workers": WORKERS,
            },
        )

    blas = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV)
    print(f"workload {args.workload} seed {args.seed}, {blas}")
    print(f"  set-up: {len(setup_s)} repetitions")
    if ops[0].uses_workers:
        print(f"  one-worker solve of the first operation: {workers1_s:.3f} s; rounds use {WORKERS} workers")
    for traced, label in ((False, "plain"), (True, "traced")):
        if rounds[traced]:
            times = " ".join(f"{r[0]:.3f}" for r in rounds[traced])
            print(f"  {label} rounds of {len(ops)} operations (s): {times}")
    print(f"  reference kernel (s): {' '.join(f'{t:.3f}' for t in ref_s)}")
    print(f"  median plain round: {solve_s:.4f} s wall")
    print(f"  per round: best sizes summed {plain[0][1]}, certified runs {plain[0][2]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
