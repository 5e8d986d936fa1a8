"""Benchmark harness: run the solver over suites of instances.

A suite is a list of generated or file-based instances plus one solver
configuration; instances run sequentially and failures become rows rather
than aborting the rest. Each row also carries the min-degree greedy size of
the same graph as a baseline.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field, fields

from .errors import InputError
from .generators import er_args, gen_er, gen_gnm, gnm_args, gnm_edge_count
from .graph import Graph
from .graph_io import load_graph
from .objective import InvalidGamma
from .optimizer import SolverConfig, _resolve_workers, solve
from .oracle import greedy_min_degree

# Named hyperparameter bundles for the benchmark families this solver
# targets. gamma is a number or "strict-n", which _settings resolves to
# each graph's node count, and to 2 below two nodes.
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

# SolverConfig's own defaults, with gamma "strict-n".
_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)} | {"gamma": "strict-n"}


def _settings(preset, overrides: dict, n: int) -> dict:
    """SolverConfig's defaults, then the preset's values, then the overrides.

    An override that is None keeps the value under it, so CLI flags and
    suite nulls can pass through unconditionally. gamma "strict-n" becomes
    max(n, 2) for a graph of n nodes: n is the least value at which the
    fixed points are the maximal independent sets, and ObjectiveParams
    needs more than 1. A number goes to SolverConfig as it is. Raises
    InputError for an unknown preset or field name or a gamma string
    other than "strict-n".
    """
    if preset is not None and (not isinstance(preset, str) or preset not in PRESETS):
        raise InputError(f"unknown preset {preset!r}; pick one of {sorted(PRESETS)}")
    unknown = set(overrides) - set(_DEFAULTS)
    if unknown:
        raise InputError(f"unknown config fields: {sorted(unknown)}")
    settings = _DEFAULTS | PRESETS.get(preset, {}) | {k: v for k, v in overrides.items() if v is not None}
    gamma = settings["gamma"]
    if isinstance(gamma, str):
        if gamma != "strict-n":
            raise InvalidGamma(f"gamma must be 'strict-n' or a number, got {gamma!r}")
        settings["gamma"] = float(max(n, 2))
    return settings


def resolve_config(g: Graph, preset: str | None = None, **overrides) -> SolverConfig:
    """Build a SolverConfig for a graph from a preset plus overrides.

    gamma accepts "strict-n", resolved against the graph (see _settings),
    or a number. solve checks a mean's length against the graph.
    """
    return SolverConfig(**_settings(preset, overrides, g.n))


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
            return f"gnm(n={self.n},m={self._edges()},seed={self.seed})"
        return self.path

    def _edges(self) -> int:
        """A gnm instance's edge count: m, or the default where none is given."""
        return gnm_edge_count(self.n) if self.m is None else self.m

    def graph(self) -> Graph:
        """Generate the graph, or load it from its file."""
        if self.kind == "er":
            return gen_er(self.n, self.p, self.seed)
        if self.kind == "gnm":
            return gen_gnm(self.n, self._edges(), self.seed)
        if self.kind == "file":
            return load_graph(self.path)
        raise ValueError(f"unknown instance kind {self.kind!r}")


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
    greedy_size: int
    mis_found_count: int
    wall_time_ms: float
    error: str = ""


@dataclass
class BenchSummary:
    rows: list[BenchRow]
    mean_best: float | None
    mean_greedy: float | None
    total_wall_ms: float


def bench_suite(suite: BenchSuite, workers: int | None = None) -> BenchSummary:
    """Solve every instance in order; errors become rows, the suite goes on.

    A bad worker count is a setting of the whole suite and raises at once.
    """
    workers = _resolve_workers(workers)
    rows: list[BenchRow] = []
    for inst in suite.instances:
        source = inst.label()
        try:
            g = inst.graph()
            cfg = resolve_config(
                g, preset=suite.preset, time_limit=suite.time_limit, **suite.options
            )
            rep = solve(g, cfg, workers=workers, source=source)
            greedy = greedy_min_degree(g).size
            rows.append(
                BenchRow(source, g.n, g.m, rep.best_size, greedy, rep.mis_found_count, rep.wall_time_ms)
            )
        except Exception as exc:  # record and continue
            rows.append(BenchRow(source, 0, 0, 0, 0, 0, 0.0, error=f"{type(exc).__name__}: {exc}"))
    good = [r for r in rows if not r.error]
    mean_best = sum(r.best_size for r in good) / len(good) if good else None
    mean_greedy = sum(r.greedy_size for r in good) / len(good) if good else None
    total = sum(r.wall_time_ms for r in rows)
    return BenchSummary(rows=rows, mean_best=mean_best, mean_greedy=mean_greedy, total_wall_ms=total)


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
    items = doc.get("instances", [])
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise InputError(f"suite instances must be a list of objects, got {items!r}")
    instances: list[BenchInstance] = []
    for item in items:
        try:
            instances.append(_parse_instance(item))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad instance {item!r}: {exc}") from None
    options = dict(doc.get("config", {}))
    preset = options.pop("preset", None)
    time_limit = doc.get("time_limit")
    _check_config(preset, options, time_limit)
    return BenchSuite(
        instances=tuple(instances),
        preset=preset,
        options=options,
        time_limit=time_limit,
    )


def _check_config(preset, options: dict, time_limit) -> None:
    """Raise InputError for a suite config that no instance could run with.

    Builds the SolverConfig once, with "strict-n" resolved as for an
    empty graph (each graph resolves it again), so SolverConfig checks
    every value. The time limit is a key of the suite itself, not of its
    config.
    """
    if "time_limit" in options:
        raise InputError("time_limit is a key of the suite, not of its config")
    SolverConfig(**_settings(preset, options | {"time_limit": time_limit}, 0))


def _parse_instance(item: dict) -> BenchInstance:
    """One suite instance, its arguments checked by the generators' own
    rules (generators.er_args and gnm_args), so that a value a generator
    would reject exits 2 before any instance runs."""
    seed = item.get("seed", 0)
    if "er" in item:
        n, p, seed = er_args(*item["er"], seed)
        return BenchInstance("er", n=n, p=p, seed=seed)
    if "gnm" in item:
        vals = item["gnm"]
        if not isinstance(vals, list) or len(vals) not in (1, 2):
            raise ValueError("gnm takes [n] or [n, m]")
        # without m the instance takes gnm_edge_count(n), which every n allows
        n, m, seed = gnm_args(vals[0], vals[1] if len(vals) == 2 else 0, seed)
        return BenchInstance("gnm", n=n, m=m if len(vals) == 2 else None, seed=seed)
    if "file" in item:
        return BenchInstance("file", path=str(item["file"]))
    raise ValueError("instance needs one of er/gnm/file")


def write_summary(summary: BenchSummary, fmt: str = "json") -> str:
    if fmt == "json":
        doc = {
            "rows": [asdict(r) | {"wall_time_ms": round(r.wall_time_ms, 3)} for r in summary.rows],
            "mean_best": summary.mean_best,
            "mean_greedy": summary.mean_greedy,
            "total_wall_ms": round(summary.total_wall_ms, 3),
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        # labels and error texts contain commas, so fields are quoted as needed
        buf = io.StringIO()
        out = csv.DictWriter(buf, [f.name for f in fields(BenchRow)], restval="", lineterminator="\n")
        out.writeheader()
        for r in summary.rows:
            out.writerow(asdict(r) | {"wall_time_ms": f"{r.wall_time_ms:.3f}"})
        # csv writes None as an empty field
        out.writerow({
            "source": "summary", "best_size": summary.mean_best, "greedy_size": summary.mean_greedy,
            "wall_time_ms": f"{summary.total_wall_ms:.3f}",
        })
        return buf.getvalue()
    raise ValueError(f"unknown summary format {fmt!r}")
