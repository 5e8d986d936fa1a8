"""Instances, operations and output checks of the quadmis benchmark.

Every instance is a pure function of the benchmark seed. The benchmark
builds its own copy of each instance's edges, as a dense boolean
adjacency matrix, and checks the program's graph and every returned set
against it; no check calls quadmis.checker or a Graph method.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse

from quadmis.bench import resolve_config
from quadmis.generators import gen_er, gen_gnm
from quadmis.graph_io import load_graph
from quadmis.objective import ObjectiveParams
from quadmis.optimizer import run_resampling, solve

WORK_DIR = Path(__file__).resolve().parent / "out"

# Planted 3-SAT shape of the sat1290 workload: one node per literal
# occurrence, so 3 * SAT_CLAUSES nodes.
SAT_VARIABLES = 100
SAT_CLAUSES = 430

# Steps per run_resampling arm on resample100, and the two arms of
# acceptance criterion 7: the full objective at gamma = n, and no
# complement term with just enough edge penalty to stay valid.
RESAMPLE_STEPS = 10_000
RESAMPLE_ARMS = (
    ("reward-on", ObjectiveParams(100.0)),
    ("reward-off", ObjectiveParams(1.0001, complement_term_enabled=False)),
)


class Parts(dict):
    """Seconds spent in each set-up layer, by layer name."""

    @contextmanager
    def time(self, layer: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self[layer] = self.get(layer, 0.0) + time.perf_counter() - t0


@dataclass
class Instance:
    """One graph as the benchmark made it, before the program sees it."""

    label: str
    seed: int
    n: int
    ref: np.ndarray  # dense boolean adjacency from the benchmark's own edges
    path: Path | None = None  # DIMACS file the program loads, if any
    clause_bound: int | None = None  # most nodes an independent set can hold


@dataclass
class Op:
    """One solve call or one run_resampling arm, with its output checks.

    run(workers) calls the program. summary(out) gives the best size, the
    certified count and a signature that must repeat exactly on every
    call with any worker count.
    """

    label: str
    run: Callable[[int], object]
    check: Callable[[object], list[str]]
    summary: Callable[[object], tuple[int, int, tuple]]
    uses_workers: bool


@dataclass
class Built:
    """A set-up instance: the program's graph and the operations on it."""

    graph: object
    ops: list[Op]


# ---- the reference kernel -------------------------------------------------


class Reference:
    """A fixed kernel, independent of quadmis, that gauges the machine's speed.

    On a shared host the same code runs up to 1.7 times slower for minutes
    at a time. The benchmark times this kernel between rounds and divides
    each round's time by it. The kernel runs, on one thread, `steps` steps
    of the work of one solver iteration: two products of a symmetric
    sparse matrix with an n x width block and an Adam-style update. The
    matrix and the block are the same for every seed. One thread gauges
    the speed of a core; two threads would mostly gauge how the
    interpreter lock is handed over, which varies far more from run to run.
    """

    def __init__(self, n: int, density: float, width: int, steps: int):
        rng = np.random.default_rng(0)
        a = scipy.sparse.random(n, n, density / 2, format="csr", random_state=rng)
        self.a = (a + a.T).tocsr()
        self.x0 = rng.random((n, width))
        self.steps = steps

    def _work(self) -> float:
        x, m1, m2 = self.x0, np.zeros_like(self.x0), np.zeros_like(self.x0)
        for t in range(1, self.steps + 1):
            g = self.a @ x - 1.0
            m1 = 0.9 * m1 + 0.1 * g
            m2 = 0.999 * m2 + 0.001 * g * g
            x = np.clip(x - 0.01 * (m1 / (1 - 0.9**t)) / (np.sqrt(m2 / (1 - 0.999**t)) + 1e-8), 0.0, 1.0)
            z = (x > 0.5).astype(np.float64)
            (self.a @ z > 0).any(axis=0)
        return float(x.sum())

    def time(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0


# ---- the benchmark's own edges ------------------------------------------


def dense(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    adj[u, v] = True
    adj[v, u] = True
    return adj


def er_ref(n: int, p: float, seed: int) -> np.ndarray:
    """G(n, p) with the documented recipe: one uniform draw per pair of the
    row-major upper triangle, kept below p."""
    iu, ju = np.triu_indices(n, k=1)
    keep = np.random.default_rng(seed).random(iu.size) < p
    return dense(n, iu[keep], ju[keep])


def gnm_ref(n: int, m: int, seed: int) -> np.ndarray:
    """G(n, m) with the documented recipe: m distinct ranks of the row-major
    upper triangle, drawn without replacement."""
    iu, ju = np.triu_indices(n, k=1)
    ranks = np.random.default_rng(seed).choice(iu.size, size=m, replace=False)
    return dense(n, iu[ranks], ju[ranks])


def planted_3sat(variables: int, clauses: int, seed: int):
    """Random 3-clauses over distinct variables that a planted assignment
    satisfies; returns (variable, positive) arrays of shape (clauses, 3)."""
    rng = np.random.default_rng(seed)
    truth = rng.random(variables) < 0.5
    var = np.empty((clauses, 3), dtype=np.int64)
    pos = np.empty((clauses, 3), dtype=bool)
    kept = 0
    while kept < clauses:
        v = rng.choice(variables, size=3, replace=False)
        s = rng.random(3) < 0.5
        if (s == truth[v]).any():
            var[kept], pos[kept] = v, s
            kept += 1
    return truth, var, pos


def sat_graph(truth, var, pos):
    """Literal-occurrence graph of a formula and its planted set.

    Node 3c + j is literal j of clause c. Each clause is a triangle, and
    every two occurrences of complementary literals are joined. The
    planted set takes the first true literal of every clause.
    """
    clauses = var.shape[0]
    base = 3 * np.arange(clauses)
    u = [base, base, base + 1]
    v = [base + 1, base + 2, base + 2]
    flat_var, flat_pos = var.ravel(), pos.ravel()
    for x in range(truth.size):
        yes = np.flatnonzero((flat_var == x) & flat_pos)
        no = np.flatnonzero((flat_var == x) & ~flat_pos)
        a, b = np.meshgrid(yes, no, indexing="ij")
        u.append(a.ravel())
        v.append(b.ravel())
    u, v = np.concatenate(u), np.concatenate(v)
    planted = base + np.argmax(pos == truth[var], axis=1)
    return u, v, planted


def write_dimacs(path: Path, n: int, u: np.ndarray, v: np.ndarray) -> None:
    lines = [f"p edge {n} {u.size}"]
    lines.extend(f"e {a + 1} {b + 1}" for a, b in zip(u.tolist(), v.tolist()))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---- checks --------------------------------------------------------------


def set_problems(ref: np.ndarray, members) -> list[str]:
    """Independence and maximality of a node set against the reference."""
    s = np.asarray(members, dtype=np.int64)
    if s.size == 0:
        return ["empty set"]
    problems = []
    if ref[np.ix_(s, s)].any():
        problems.append("best set is not independent")
    covered = ref[:, s].any(axis=1)
    covered[s] = True
    if not covered.all():
        problems.append(f"best set is not maximal: node {int(np.argmin(covered))} could join")
    return problems


def graph_problems(inst: Instance, g) -> list[str]:
    """The program's graph must hold exactly the benchmark's edges."""
    if g.n != inst.n:
        return [f"{inst.label}: program graph has {g.n} nodes, expected {inst.n}"]
    rows = np.repeat(np.arange(g.n), np.diff(np.asarray(g.indptr, dtype=np.int64)))
    prog = np.zeros_like(inst.ref)
    prog[rows, np.asarray(g.indices)] = True
    if not np.array_equal(prog, inst.ref):
        return [f"{inst.label}: program graph differs from the generated edges"]
    return []


def solve_problems(inst: Instance, cfg, rep) -> list[str]:
    problems = []
    if rep.best is None:
        return ["no certified set"]
    problems += set_problems(inst.ref, rep.best.members)
    if rep.best_size != len(rep.best.members):
        problems.append("best_size differs from the size of the best set")
    runs = cfg.batch_size * cfg.batch_count
    if rep.runs_completed + rep.numerical_failures != runs:
        problems.append(f"runs_completed + numerical_failures != {runs}")
    if rep.numerical_failures:
        problems.append(f"{rep.numerical_failures} numerical failures")
    if rep.mis_found_count > rep.runs_completed:
        problems.append("mis_found_count > runs_completed")
    sizes = [size for _, size in rep.trace]
    if len(sizes) != cfg.batch_count:
        problems.append(f"trace has {len(sizes)} batches, expected {cfg.batch_count}")
    if any(b < a for a, b in zip(sizes, sizes[1:])) or (sizes and sizes[-1] != rep.best_size):
        problems.append("trace best sizes decrease or do not end at best_size")
    if inst.clause_bound is not None and rep.best_size > inst.clause_bound:
        problems.append(f"best_size {rep.best_size} exceeds {inst.clause_bound}")
    return problems


def resample_problems(inst: Instance, steps: int, out) -> list[str]:
    if out.iterations != steps:
        return [f"ran {out.iterations} steps, expected {steps}"]
    if out.best is None:
        return [] if not out.found_sizes else ["sets were found but best is None"]
    problems = set_problems(inst.ref, out.best.members)
    if max(out.found_sizes) != out.best.size:
        problems.append("largest found size differs from the best set")
    return problems


# ---- workloads ----------------------------------------------------------


def solve_op(inst: Instance, g, cfg) -> Op:
    return Op(
        label=inst.label,
        run=lambda workers: solve(g, cfg, workers=workers, source=inst.label),
        check=lambda rep: solve_problems(inst, cfg, rep),
        summary=lambda rep: (
            rep.best_size,
            rep.mis_found_count,
            (None if rep.best is None else rep.best.members, rep.mis_found_count, rep.runs_completed),
        ),
        uses_workers=True,
    )


def resample_op(inst: Instance, g, arm: str, params) -> Op:
    def summary(out):
        best = 0 if out.best is None else out.best.size
        members = None if out.best is None else out.best.members
        return best, len(out.found_sizes), (members, tuple(out.found_sizes))

    return Op(
        label=f"{inst.label}/{arm}",
        run=lambda workers: run_resampling(g, params, RESAMPLE_STEPS, 0.5, inst.seed),
        check=lambda out: resample_problems(inst, RESAMPLE_STEPS, out),
        summary=summary,
        uses_workers=False,
    )


class Workload:
    """A family of instances plus how the program sets them up and solves them.

    count instances per round; instance i of seed s uses seed 1000 s + i.
    """

    count = 1
    # Reference kernel of the same shape as the workload's solver work:
    # (n, density, width, steps), about 0.3 s per run.
    ref_shape: tuple[int, float, int, int]

    def reference(self) -> Reference:
        return Reference(*self.ref_shape)

    def seeds(self, seed: int) -> list[int]:
        return [1000 * seed + i for i in range(self.count)]

    def instances(self, seed: int) -> list[Instance]:
        raise NotImplementedError

    def setup(self, inst: Instance, parts: Parts) -> Built:
        raise NotImplementedError

    def cleanup(self, instances: list[Instance]) -> None:
        pass


class Er700(Workload):
    preset, budget = "er", dict(batch_count=2)
    ref_shape = (700, 0.15, 32, 90)

    def instances(self, seed):
        return [Instance(f"er(700,0.15)#{s}", s, 700, er_ref(700, 0.15, s)) for s in self.seeds(seed)]

    def setup(self, inst, parts):
        with parts.time("generators.gen"):
            g = gen_er(700, 0.15, inst.seed)
        return _solve_setup(self, inst, g, parts)


class Gnm800(Workload):
    preset, budget = "gnm", dict(batch_size=64, batch_count=1)
    ref_shape = (800, 0.5, 32, 27)
    n, m = 800, 159_800  # half of all pairs

    def instances(self, seed):
        return [Instance(f"gnm({self.n},{self.m})#{s}", s, self.n, gnm_ref(self.n, self.m, s)) for s in self.seeds(seed)]

    def setup(self, inst, parts):
        with parts.time("generators.gen"):
            g = gen_gnm(self.n, self.m, inst.seed)
        return _solve_setup(self, inst, g, parts)


class Sat1290(Workload):
    # Two formulas of 5 batches each rather than one of 10: the solve time
    # differs by up to a quarter between formulas, and averaging two per
    # round narrows that spread at the same work per round.
    count = 2
    preset, budget = "satlib", dict(batch_count=5)
    ref_shape = (1290, 0.0065, 32, 240)

    def instances(self, seed):
        WORK_DIR.mkdir(exist_ok=True)
        out = []
        for s in self.seeds(seed):
            truth, var, pos = planted_3sat(SAT_VARIABLES, SAT_CLAUSES, s)
            u, v, planted = sat_graph(truth, var, pos)
            n = 3 * SAT_CLAUSES
            ref = dense(n, u, v)
            if ref[np.ix_(planted, planted)].any() or np.unique(planted).size != SAT_CLAUSES:
                raise SystemExit(f"planted set of seed {s} is not an independent set of {SAT_CLAUSES} nodes")
            path = WORK_DIR / f"sat1290-{s}-{os.getpid()}.dimacs"
            write_dimacs(path, n, u, v)
            out.append(Instance(f"sat({SAT_VARIABLES},{SAT_CLAUSES})#{s}", s, n, ref, path, SAT_CLAUSES))
        return out

    def setup(self, inst, parts):
        with parts.time("graph_io.load_graph"):
            g = load_graph(inst.path)
        return _solve_setup(self, inst, g, parts)

    def cleanup(self, instances):
        for inst in instances:
            inst.path.unlink(missing_ok=True)


class Resample100(Workload):
    count = 2
    n, m = 100, 2475
    ref_shape = (100, 0.5, 1, 5000)

    def instances(self, seed):
        return [Instance(f"gnm({self.n},{self.m})#{s}", s, self.n, gnm_ref(self.n, self.m, s)) for s in self.seeds(seed)]

    def setup(self, inst, parts):
        with parts.time("generators.gen"):
            g = gen_gnm(self.n, self.m, inst.seed)
        with parts.time("graph.adjacency_csr"):
            g.adjacency_csr()
        return Built(g, [resample_op(inst, g, arm, params) for arm, params in RESAMPLE_ARMS])


def _solve_setup(work, inst, g, parts) -> Built:
    with parts.time("graph.adjacency_csr"):
        g.adjacency_csr()
    with parts.time("bench.resolve_config"):
        cfg = resolve_config(g, work.preset, seed=inst.seed, **work.budget)
    return Built(g, [solve_op(inst, g, cfg)])


WORKLOADS: dict[str, Workload] = {
    "er700": Er700(),
    "gnm800": Gnm800(),
    "sat1290": Sat1290(),
    "resample100": Resample100(),
}
