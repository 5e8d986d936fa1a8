"""Text formats for graphs and solver reports.

Two graph formats:

* DIMACS edge format: ``p edge <n> <m>`` header, then 1-indexed
  ``e <u> <v>`` lines. Comment lines start with ``c``.
* Plain edge list: first line ``<n> <m>``, then m 0-indexed ``<u> <v>``
  lines. Comment lines start with ``#``.

Both headers declare the number of edge records in the file; duplicate
records are legal and collapse during graph construction. The parsers
collect the endpoints in one flat list of ints and hand the graph an
(m, 2) int64 array, which numpy converts faster than a list of pairs.
"""

from __future__ import annotations

import json
from dataclasses import fields

import numpy as np

from .errors import InputError
from .graph import Graph
from .optimizer import SolveReport


class ParseError(InputError):
    """Malformed graph text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def parse_dimacs(text: str) -> Graph:
    n = None
    declared = None
    edges: list[int] = []  # u0, v0, u1, v1, ...
    for ln, raw in enumerate(text.splitlines(), start=1):
        tok = raw.split()
        if not tok or tok[0] == "c":
            continue
        if tok[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", ln)
            if len(tok) != 4:
                raise ParseError("expected 'p edge <n> <m>'", ln)
            try:
                n, declared = int(tok[2]), int(tok[3])
            except ValueError:
                raise ParseError("non-integer counts in problem line", ln) from None
            if n < 0 or declared < 0:
                raise ParseError("negative counts in problem line", ln)
        elif tok[0] == "e":
            if n is None:
                raise ParseError("edge record before problem line", ln)
            if len(tok) != 3:
                raise ParseError("expected 'e <u> <v>'", ln)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise ParseError("non-integer endpoints", ln) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"endpoint outside 1..{n}", ln)
            if u == v:
                raise ParseError("self-loop", ln)
            edges += (u - 1, v - 1)
        else:
            raise ParseError(f"unrecognized record type {tok[0]!r}", ln)
    if n is None:
        raise ParseError("missing problem line")
    return _graph(n, declared, edges)


def parse_edge_list(text: str) -> Graph:
    n = None
    declared = 0
    edges: list[int] = []  # u0, v0, u1, v1, ...
    for ln, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tok = stripped.split()
        if len(tok) != 2:
            raise ParseError("expected two integers", ln)
        try:
            a, b = int(tok[0]), int(tok[1])
        except ValueError:
            raise ParseError("expected two integers", ln) from None
        if n is None:
            if a < 0 or b < 0:
                raise ParseError("negative counts in header", ln)
            n, declared = a, b
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"endpoint outside 0..{n - 1}", ln)
        if a == b:
            raise ParseError("self-loop", ln)
        edges += (a, b)
    if n is None:
        raise ParseError("empty input")
    return _graph(n, declared, edges)


def _graph(n: int, declared: int, edges: list[int]) -> Graph:
    """The graph of the flat endpoint list edges, which must hold the
    declared number of edge records."""
    if len(edges) != 2 * declared:
        raise ParseError(f"header declares {declared} edges, file has {len(edges) // 2}")
    if n >= 2**31:
        # too many nodes, which from_edge_list reports before it reads an
        # edge; endpoints this large may not fit in int64
        return Graph.from_edge_list(n, [])
    return Graph.from_edge_list(n, np.array(edges, dtype=np.int64).reshape(-1, 2))


def write_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edge_array())
    return "\n".join(lines) + "\n"


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_array())
    return "\n".join(lines) + "\n"


def sniff_format(text: str) -> str:
    """Guess 'dimacs' or 'edges' from the first meaningful line."""
    for raw in text.splitlines():
        tok = raw.split()
        if not tok or tok[0] == "c" or tok[0].startswith("#"):
            continue
        return "dimacs" if tok[0] in ("p", "e") else "edges"
    return "edges"


def load_graph(path, fmt: str | None = None) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from None
    fmt = fmt or sniff_format(text)
    if fmt == "dimacs":
        return parse_dimacs(text)
    if fmt == "edges":
        return parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def report_to_dict(report: SolveReport) -> dict:
    """Stable-ordered dict form of a solve report, ready for json.dumps."""
    cfg = report.config
    # every setting in field order; the seed goes with the instance, and the
    # mean, a whole vector, is left out
    config = {} if cfg is None else {
        f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("seed", "mean")
    }
    return {
        "instance": {
            "n": report.n,
            "m": report.m,
            "source": report.source,
            "seed": None if cfg is None else cfg.seed,
        },
        "config": config,
        "backend": report.backend,
        "best_size": report.best_size,
        "best_set": [] if report.best is None else list(report.best.members),
        "mis_found_count": report.mis_found_count,
        "runs_completed": report.runs_completed,
        "numerical_failures": report.numerical_failures,
        "wall_time_ms": round(report.wall_time_ms, 3),
        "trace": [[round(ms, 3), size] for ms, size in report.trace],
    }


def write_report(report: SolveReport, fmt: str = "json") -> str:
    """Serialize a report; json carries everything, csv just the trace."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt == "csv":
        lines = ["elapsed_ms,best_size"]
        lines.extend(f"{ms:.3f},{size}" for ms, size in report.trace)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
