"""Benchmark harness: run the solver over suites of instances.

A suite is a list of generated or file-based instances plus one solver
configuration; instances run sequentially and failures become rows rather
than aborting the rest.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError
from .generators import gen_er, gen_gnm, gnm_edge_count
from .graph import Graph
from .graph_io import load_graph
from .objective import gamma_select
from .optimizer import SolveReport, SolverConfig, solve

# Named hyperparameter bundles for the benchmark families this solver
# targets. gamma is a selection mode resolved per graph.
PRESETS: dict[str, dict] = {
    "er": dict(
        gamma=775.0, alpha=0.6, iterations=150,
        batch_size=256, batch_count=28, init_scheme="random",
    ),
    "satlib": dict(
        gamma=775.0, alpha=0.9, iterations=50,
        batch_size=128, batch_count=40, init_scheme="degree",
    ),
    "gnm": dict(
        gamma="strict-n", alpha=0.5, iterations=350,
        batch_size=1024, batch_count=10, init_scheme="degree",
    ),
}

_DEFAULTS = dict(
    gamma="strict-n",
    alpha=0.5,
    iterations=350,
    batch_size=64,
    batch_count=1,
    init_scheme="random",
    eta=2.25,
    seed=0,
    time_limit=None,
    complement_term_enabled=True,
    mean=None,
    include_mean_as_first=True,
)


def resolve_config(g: Graph, preset: str | None = None, **overrides) -> SolverConfig:
    """Build a SolverConfig for a graph from a preset plus overrides.

    gamma accepts "wei-floor", "strict-n", or a number and is resolved
    against the graph here. Overrides that are None are ignored so CLI
    flags can pass through unconditionally.
    """
    fields = dict(_DEFAULTS)
    if preset is not None:
        if preset not in PRESETS:
            raise InputError(f"unknown preset {preset!r}; pick one of {sorted(PRESETS)}")
        fields.update(PRESETS[preset])
    unknown = set(overrides) - set(fields)
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    fields.update({k: v for k, v in overrides.items() if v is not None})
    if fields["mean"] is not None and np.shape(fields["mean"]) != (g.n,):
        raise InputError(f"mean vector has shape {np.shape(fields['mean'])}, graph has {g.n} nodes")
    params = gamma_select(g, fields.pop("gamma"), fields.pop("complement_term_enabled"))
    return SolverConfig(
        gamma=params.gamma,
        complement_term_enabled=params.complement_term_enabled,
        **fields,
    )


@dataclass(frozen=True)
class BenchInstance:
    kind: str  # "er" | "gnm" | "file"
    n: int = 0
    p: float = 0.0
    m: int | None = None
    seed: int = 0
    path: str = ""

    def label(self) -> str:
        if self.kind == "er":
            return f"er(n={self.n},p={self.p},seed={self.seed})"
        if self.kind == "gnm":
            m = gnm_edge_count(self.n) if self.m is None else self.m
            return f"gnm(n={self.n},m={m},seed={self.seed})"
        return self.path


@dataclass
class BenchSuite:
    instances: tuple[BenchInstance, ...]
    preset: str | None = None
    options: dict = field(default_factory=dict)
    time_limit: float | None = None


@dataclass
class BenchRow:
    source: str
    n: int
    m: int
    best_size: int
    mis_found_count: int
    wall_time_ms: float
    error: str = ""


@dataclass
class BenchSummary:
    rows: list[BenchRow]
    mean_best: float | None
    total_wall_ms: float
    reports: list[SolveReport] = field(default_factory=list)


def _materialize(inst: BenchInstance) -> Graph:
    if inst.kind == "er":
        return gen_er(inst.n, inst.p, inst.seed)
    if inst.kind == "gnm":
        m = gnm_edge_count(inst.n) if inst.m is None else inst.m
        return gen_gnm(inst.n, m, inst.seed)
    if inst.kind == "file":
        return load_graph(inst.path)
    raise ValueError(f"unknown instance kind {inst.kind!r}")


def bench_suite(suite: BenchSuite, workers: int | None = None) -> BenchSummary:
    """Solve every instance in order; errors become rows, the suite goes on."""
    rows: list[BenchRow] = []
    reports: list[SolveReport] = []
    for inst in suite.instances:
        source = inst.label()
        try:
            g = _materialize(inst)
            cfg = resolve_config(
                g, preset=suite.preset, time_limit=suite.time_limit, **suite.options
            )
            rep = solve(g, cfg, workers=workers, source=source)
            rows.append(
                BenchRow(source, g.n, g.m, rep.best_size, rep.mis_found_count, rep.wall_time_ms)
            )
            reports.append(rep)
        except Exception as exc:  # record and continue
            rows.append(BenchRow(source, 0, 0, 0, 0, 0.0, error=f"{type(exc).__name__}: {exc}"))
    good = [r for r in rows if not r.error]
    mean_best = sum(r.best_size for r in good) / len(good) if good else None
    total = sum(r.wall_time_ms for r in rows)
    return BenchSummary(rows=rows, mean_best=mean_best, total_wall_ms=total, reports=reports)


def parse_suite(text: str) -> BenchSuite:
    """Suite descriptor from JSON.

    Shape: {"config": {"preset": "gnm", ...field overrides...},
            "time_limit": seconds,
            "instances": [{"er": [n, p], "seed": 0},
                          {"gnm": [n] or [n, m], "seed": 1},
                          {"file": "path"}]}
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"suite is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("config", {}), dict):
        raise InputError("suite must be a JSON object whose config is an object")
    instances: list[BenchInstance] = []
    for item in doc.get("instances", []):
        try:
            instances.append(_parse_instance(item))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad instance {item!r}: {exc}") from None
    options = dict(doc.get("config", {}))
    preset = options.pop("preset", None)
    return BenchSuite(
        instances=tuple(instances),
        preset=preset,
        options=options,
        time_limit=doc.get("time_limit"),
    )


def _parse_instance(item: dict) -> BenchInstance:
    seed = int(item.get("seed", 0))
    if "er" in item:
        n, p = item["er"]
        return BenchInstance("er", n=int(n), p=float(p), seed=seed)
    if "gnm" in item:
        vals = item["gnm"]
        m = int(vals[1]) if len(vals) > 1 else None
        return BenchInstance("gnm", n=int(vals[0]), m=m, seed=seed)
    if "file" in item:
        return BenchInstance("file", path=str(item["file"]))
    raise ValueError("instance needs one of er/gnm/file")


def write_summary(summary: BenchSummary, fmt: str = "json") -> str:
    if fmt == "json":
        doc = {
            "rows": [
                {
                    "source": r.source,
                    "n": r.n,
                    "m": r.m,
                    "best_size": r.best_size,
                    "mis_found_count": r.mis_found_count,
                    "wall_time_ms": round(r.wall_time_ms, 3),
                    "error": r.error,
                }
                for r in summary.rows
            ],
            "mean_best": summary.mean_best,
            "total_wall_ms": round(summary.total_wall_ms, 3),
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        lines = ["source,n,m,best_size,mis_found_count,wall_time_ms,error"]
        for r in summary.rows:
            lines.append(
                f"{r.source},{r.n},{r.m},{r.best_size},{r.mis_found_count},"
                f"{r.wall_time_ms:.3f},{r.error}"
            )
        mean = "" if summary.mean_best is None else f"{summary.mean_best}"
        lines.append(f"summary,,,{mean},,{summary.total_wall_ms:.3f},")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown summary format {fmt!r}")
