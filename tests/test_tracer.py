"""The benchmark's tracer against the package it patches.

perfbench/tracer.py replaces module-level names of quadmis.optimizer and
quadmis.checker with timing wrappers, and reads the column span of each
sampler call from its positional arguments. A change to one of those
names or signatures would otherwise break only a traced benchmark run.
"""

import importlib.util
from pathlib import Path

from quadmis import SolverConfig, gen_er, run_resampling, solve

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(rep):
    return rep.best, rep.best_size, rep.mis_found_count, rep.runs_completed


def test_tracer_wraps_the_solver_without_changing_it():
    tracer_mod = _load_tracer()
    g = gen_er(30, 0.2, 1)
    # degree starts for batch 0, restarts around the best set for batch 1
    cfg = SolverConfig(
        gamma=float(g.n), alpha=0.6, iterations=60,
        batch_size=8, batch_count=2, init_scheme="degree", seed=2,
    )
    plain = solve(g, cfg, workers=1)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        traced = solve(g, cfg, workers=1)
    assert _summary(traced) == _summary(plain)
    layers = tracer.layer_metrics(rounds=1, workers=1)
    drawn = layers["initialization.sample_block_cols"][0], layers["initialization.sample_around_cols"][0]
    assert drawn == (8, 8)
    assert tracer.cols["optimizer.run_block"] == 16

    plain = run_resampling(g, cfg.params(), 200, 0.6, 3)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        traced = run_resampling(g, cfg.params(), 200, 0.6, 3)
    assert (traced.found_sizes, traced.best) == (plain.found_sizes, plain.best)
    layers = tracer.layer_metrics(rounds=1, workers=1)
    drawn = layers["initialization.sample_block_cols"][0] + layers["initialization.sample_around_cols"][0]
    assert drawn == tracer.cols["optimizer.run_block"] >= len(plain.found_sizes) >= 1
