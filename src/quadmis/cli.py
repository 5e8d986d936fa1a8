"""Command line front end.

Subcommands: solve, gen, oracle, check, bench. Exit codes: 0 on success,
2 on bad input (parse or validation), 3 on numerical failure. Any other
error is a program fault and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .bench import PRESETS, BenchInstance, bench_suite, parse_suite, resolve_config, write_summary
from .checker import direct_mis_check, fast_mis_check
from .errors import InputError
from .graph import NodeSet
from .graph_io import load_graph, write_dimacs, write_edge_list, write_report
from .initialization import load_mean_file
from .oracle import exact_mis
from .optimizer import NumericalError, SolverConfig, solve

_INPUT_ERRORS = (InputError, OSError)


def _gamma_arg(raw: str):
    if raw == "n":
        return "strict-n"
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"gamma must be 'n' or a number, got {raw!r}")


def _workers(args: argparse.Namespace) -> int | None:
    if getattr(args, "workers", None) is not None:
        return args.workers
    env = os.environ.get("QUADMIS_WORKERS")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"QUADMIS_WORKERS must be an integer, got {env!r}") from None
    return None


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_solver_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--gamma", type=_gamma_arg, default=None,
                    help="'n' (node count) or a finite number")
    sp.add_argument("--lr", type=float, default=None, dest="alpha")
    sp.add_argument("--iters", type=int, default=None, dest="iterations")
    sp.add_argument("--batch-size", type=int, default=None)
    sp.add_argument("--batches", type=int, default=None, dest="batch_count")
    sp.add_argument("--init", default=None,
                    help="'random', 'degree', or 'mean:FILE' for an explicit start point")
    sp.add_argument("--eta", type=float, default=None,
                    help="variance of the noise around the initial mean")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--time-limit", type=float, default=None)
    sp.add_argument("--no-complement-term", action="store_false", default=None,
                    dest="complement_term_enabled",
                    help="drop the reward for adding non-adjacent nodes (diagnostic)")
    sp.add_argument("--preset", choices=tuple(PRESETS), default=None)
    sp.add_argument("--workers", type=int, default=None)


def _solver_overrides(args: argparse.Namespace) -> dict:
    """The solver flags by SolverConfig field name; --init sets two fields."""
    names = {f.name for f in fields(SolverConfig)}
    over = {name: value for name, value in vars(args).items() if name in names}
    if args.init is not None:
        if args.init.startswith("mean:"):
            over["init_scheme"] = "external-mean"
            over["mean"] = load_mean_file(args.init[len("mean:"):])
        elif args.init in ("random", "degree"):
            over["init_scheme"] = args.init
        else:
            raise InputError(f"--init must be 'random', 'degree', or 'mean:FILE', got {args.init!r}")
    return over


def _cmd_solve(args: argparse.Namespace) -> int:
    g = load_graph(args.graph, args.format)
    cfg = resolve_config(g, preset=args.preset, **_solver_overrides(args))
    rep = solve(g, cfg, workers=_workers(args), source=args.graph)
    _emit(write_report(rep, args.output), args.out)
    print(
        f"n={g.n} m={g.m} best={rep.best_size} found={rep.mis_found_count}"
        f"/{rep.runs_completed} wall={rep.wall_time_ms:.1f}ms",
        file=sys.stderr,
    )
    if rep.mis_found_count == 0 and rep.numerical_failures > 0:
        return 3
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "er" and args.p is None:
        raise InputError("er generation needs --p")
    p = 0.0 if args.p is None else args.p
    g = BenchInstance(args.family, n=args.n, p=p, m=args.m, seed=args.seed).graph()
    text = write_dimacs(g) if args.format == "dimacs" else write_edge_list(g)
    _emit(text, args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    g = load_graph(args.graph, args.format)
    res = exact_mis(g, enumerate_all=args.enumerate)
    doc = {
        "n": g.n,
        "m": g.m,
        "optimum_size": res.optimum_size,
        "one_optimum": list(res.one_optimum),
    }
    if res.all_optima is not None:
        doc["all_optima"] = [list(s) for s in res.all_optima]
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    g = load_graph(args.graph, args.format)
    try:
        members = [int(tok) for tok in args.set.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"--set must list integer node ids, got {args.set!r}") from None
    z = np.zeros(g.n)
    for v in members:
        if not 0 <= v < g.n:
            raise InputError(f"node {v} out of range for n={g.n}")
        z[v] = 1.0
    nodes = NodeSet.of(members)
    doc = {
        "fast": fast_mis_check(g, z),
        "direct": direct_mis_check(g, z),
        "independent": g.is_independent(nodes),
        "maximal": g.is_maximal_independent(nodes),
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        with open(args.suite, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"suite is not UTF-8 text: {exc}") from None
    suite = parse_suite(text)
    summary = bench_suite(suite, workers=_workers(args))
    _emit(write_summary(summary, args.output), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="quadmis",
        description="Maximum independent sets via clipped gradient descent on a quadratic relaxation.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="run the solver on a graph file")
    sp.add_argument("graph")
    sp.add_argument("--format", choices=("dimacs", "edges"), default=None)
    _add_solver_flags(sp)
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("gen", help="generate a random graph")
    sp.add_argument("family", choices=("er", "gnm"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("dimacs", "edges"), default="edges")
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_gen)

    sp = sub.add_parser("oracle", help="exact optimum by branch and bound (small graphs)")
    sp.add_argument("graph")
    sp.add_argument("--format", choices=("dimacs", "edges"), default=None)
    sp.add_argument("--enumerate", action="store_true",
                    help="list every optimum (tiny graphs only)")
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("check", help="test a node set against a graph")
    sp.add_argument("graph")
    sp.add_argument("--format", choices=("dimacs", "edges"), default=None)
    sp.add_argument("--set", required=True, help="comma-separated node ids, e.g. '0,3,4'")
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("bench", help="run a suite of instances from a JSON descriptor")
    sp.add_argument("suite")
    sp.add_argument("--workers", type=int, default=None)
    sp.add_argument("--output", choices=("json", "csv"), default="json")
    sp.add_argument("-o", "--out", default=None)
    sp.set_defaults(func=_cmd_bench)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
