import csv
import json
from dataclasses import fields
from pathlib import Path

import pytest

from quadmis import (
    PRESETS,
    BenchInstance,
    BenchSuite,
    SolverConfig,
    bench_suite,
    gen_gnm,
    gnm_edge_count,
    greedy_min_degree,
    parse_suite,
    resolve_config,
    solve,
    write_summary,
)
from quadmis.errors import InputError
from quadmis.graph_io import report_to_dict


def test_preset_tables():
    assert set(PRESETS) == {"er", "satlib", "gnm"}
    er = PRESETS["er"]
    assert (er["gamma"], er["alpha"], er["iterations"]) == (775.0, 0.6, 150)
    assert (er["batch_size"], er["batch_count"], er["init_scheme"]) == (256, 28, "random")
    sat = PRESETS["satlib"]
    assert (sat["gamma"], sat["alpha"], sat["iterations"]) == (775.0, 0.9, 50)
    assert (sat["batch_size"], sat["batch_count"], sat["init_scheme"]) == (128, 40, "degree")
    gnm = PRESETS["gnm"]
    assert (gnm["gamma"], gnm["alpha"], gnm["iterations"]) == ("strict-n", 0.5, 350)
    assert (gnm["batch_size"], gnm["batch_count"], gnm["init_scheme"]) == (1024, 10, "degree")


def test_resolve_config_defaults(fig1):
    cfg = resolve_config(fig1)
    assert cfg.gamma == 5.0  # strict-n resolves against the graph
    assert cfg.alpha == 0.5
    assert cfg.batch_size == 64
    assert cfg.init_scheme == "random"


def test_resolve_config_preset_and_overrides(fig1):
    cfg = resolve_config(fig1, preset="gnm", batch_size=16, seed=9)
    assert cfg.gamma == 5.0
    assert cfg.alpha == 0.5
    assert cfg.iterations == 350
    assert cfg.batch_size == 16
    assert cfg.batch_count == 10
    assert cfg.init_scheme == "degree"
    assert cfg.seed == 9


def test_resolve_config_none_overrides_ignored(fig1):
    cfg = resolve_config(fig1, preset="er", alpha=None, seed=None)
    assert cfg.alpha == 0.6
    assert cfg.gamma == 775.0


def test_resolve_config_rejects_junk(fig1):
    with pytest.raises(ValueError, match="unknown preset"):
        resolve_config(fig1, preset="huge")
    with pytest.raises(ValueError, match="unknown config fields"):
        resolve_config(fig1, stride=3)
    with pytest.raises(InputError, match="complement_term_enabled"):  # a truthy string, not True
        resolve_config(fig1, complement_term_enabled="no")


def test_settings_follow_the_solver_config_fields(fig1):
    # the report lists every setting in field order; the seed goes with the instance
    names = [f.name for f in fields(SolverConfig) if f.name not in ("seed", "mean")]
    rep = solve(fig1, resolve_config(fig1, batch_size=4, iterations=20), workers=1)
    assert list(report_to_dict(rep)["config"]) == names
    # a suite may name every field of its config at the default, or give null
    # for the default; the time limit is a key of the suite itself
    config = {f.name: f.default for f in fields(SolverConfig) if f.name not in ("gamma", "time_limit")}
    config["gamma"] = "strict-n"
    for doc in (config, dict.fromkeys(config)):
        suite = parse_suite(json.dumps({"config": doc, "time_limit": None, "instances": [{"gnm": [5]}]}))
        cfg = resolve_config(fig1, suite.preset, time_limit=suite.time_limit, **suite.options)
        assert cfg == resolve_config(fig1)


def test_parse_suite():
    text = json.dumps(
        {
            "config": {"preset": "gnm", "batch_size": 32},
            "time_limit": 5,
            "instances": [
                {"er": [30, 0.2], "seed": 1},
                {"gnm": [40]},
                {"gnm": [40, 100], "seed": 2},
                {"file": "x.edges"},
            ],
        }
    )
    suite = parse_suite(text)
    assert suite.preset == "gnm"
    assert suite.options == {"batch_size": 32}
    assert suite.time_limit == 5
    kinds = [inst.kind for inst in suite.instances]
    assert kinds == ["er", "gnm", "gnm", "file"]
    assert suite.instances[0].p == 0.2
    assert suite.instances[1].m is None
    assert suite.instances[2].m == 100
    assert suite.instances[3].path == "x.edges"


def test_er700_suite():
    # the descriptor behind the README's ER numbers
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "er700.json"
    suite = parse_suite(path.read_text())
    assert suite.preset == "er"
    assert suite.options == {}
    assert suite.time_limit == 300
    assert [(i.kind, i.n, i.p, i.seed) for i in suite.instances] == [("er", 700, 0.15, s) for s in range(10)]


def test_parse_suite_rejects_unknown_instance():
    with pytest.raises(ValueError):
        parse_suite(json.dumps({"instances": [{"torus": [3]}]}))


def test_bench_suite_runs_and_records_errors(tmp_path):
    suite = BenchSuite(
        instances=(
            BenchInstance("gnm", n=30, seed=0),
            BenchInstance("file", path=str(tmp_path / "missing.edges")),
        ),
        preset=None,
        options={"batch_size": 16, "iterations": 80},
    )
    summary = bench_suite(suite, workers=1)
    assert len(summary.rows) == 2
    good, bad = summary.rows
    assert good.error == ""
    assert good.n == 30 and good.m == (30 * 29 + 3) // 4
    assert good.best_size >= 1
    assert good.greedy_size == greedy_min_degree(gen_gnm(30, good.m, 0)).size
    assert bad.error.startswith("FileNotFoundError")
    assert bad.greedy_size == 0
    assert summary.mean_best == good.best_size
    assert summary.mean_greedy == good.greedy_size


def test_bench_summary_formats():
    suite = BenchSuite(
        instances=(BenchInstance("gnm", n=20, seed=1),),
        options={"batch_size": 8, "iterations": 50},
    )
    summary = bench_suite(suite, workers=1)
    doc = json.loads(write_summary(summary, "json"))
    assert doc["rows"][0]["n"] == 20
    assert doc["mean_best"] == summary.mean_best
    lines = write_summary(summary, "csv").splitlines()
    assert lines[0].startswith("source,n,m,")
    assert lines[-1].startswith("summary,")
    # labels such as gnm(n=20,m=95,seed=1) contain commas
    rows = list(csv.reader(lines))
    assert all(len(row) == len(rows[0]) for row in rows)
    assert rows[1][0] == summary.rows[0].source
    with pytest.raises(ValueError):
        write_summary(summary, "yaml")


def test_mean_best_none_when_everything_fails():
    suite = BenchSuite(instances=(BenchInstance("file", path="/definitely/not/here"),))
    summary = bench_suite(suite, workers=1)
    assert summary.mean_best is None
    assert summary.rows[0].error != ""


def test_instance_labels():
    assert BenchInstance("er", n=5, p=0.5, seed=2).label() == "er(n=5,p=0.5,seed=2)"
    assert BenchInstance("gnm", n=50, seed=0).label() == "gnm(n=50,m=613,seed=0)"
    assert BenchInstance("file", path="a/b.col").label() == "a/b.col"


def test_low_gamma_without_complement_runs():
    # ObjectiveParams alone owns gamma's range: 0.5 is admissible with the
    # complement term off, so the suite runs, and its sets are maximal
    suite = parse_suite(json.dumps({
        "config": {"gamma": 0.5, "complement_term_enabled": False},
        "instances": [{"gnm": [10]}],
    }))
    (row,) = bench_suite(suite, workers=1).rows
    assert row.error == "" and row.mis_found_count >= 1
    g = gen_gnm(10, gnm_edge_count(10), 0)
    rep = solve(g, resolve_config(g, gamma=0.5, complement_term_enabled=False), workers=1)
    assert rep.best_size == row.best_size and g.is_maximal_independent(rep.best)
