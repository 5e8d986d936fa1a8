import json

import numpy as np
import pytest
from hypothesis import given, settings

from quadmis import (
    ParseError,
    SolverConfig,
    load_graph,
    parse_dimacs,
    parse_edge_list,
    solve,
    write_dimacs,
    write_edge_list,
    write_report,
)
from quadmis.graph_io import sniff_format

from conftest import graph_inputs

DIMACS_SAMPLE = """\
c tiny instance
c with comments
p edge 5 4
e 1 2
e 1 3
e 2 4
e 2 5
"""


def test_parse_dimacs_one_indexed(fig1):
    g = parse_dimacs(DIMACS_SAMPLE)
    assert g == fig1


def test_parse_edge_list(fig1):
    text = "# comment\n5 4\n0 1\n0 2\n1 3\n1 4\n"
    assert parse_edge_list(text) == fig1


@pytest.mark.parametrize(
    "text,line",
    [
        ("p edge 3\ne 1 2\n", 1),
        ("p edge 3 1\np edge 3 1\ne 1 2\n", 2),
        ("e 1 2\n", 1),
        ("p edge 3 1\ne 1 4\n", 2),
        ("p edge 3 1\ne 2 2\n", 2),
        ("p edge 3 1\nq 1 2\n", 2),
        ("p edge 3 x\n", 1),
    ],
)
def test_dimacs_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_dimacs(text)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)


def test_dimacs_count_mismatch():
    with pytest.raises(ParseError, match="declares 2 edges"):
        parse_dimacs("p edge 3 2\ne 1 2\n")
    with pytest.raises(ParseError, match="missing problem line"):
        parse_dimacs("c nothing else\n")


def test_edge_list_errors():
    with pytest.raises(ParseError, match="empty"):
        parse_edge_list("# only a comment\n")
    with pytest.raises(ParseError) as exc:
        parse_edge_list("3 1\n0 3\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n1 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 1\n1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("3 1\n0 1 2\n")


@settings(max_examples=50, deadline=None)
@given(graph_inputs())
def test_round_trips(g):
    assert parse_dimacs(write_dimacs(g)) == g
    assert parse_edge_list(write_edge_list(g)) == g


def test_sniff_format():
    assert sniff_format(DIMACS_SAMPLE) == "dimacs"
    assert sniff_format("5 4\n0 1\n") == "edges"
    assert sniff_format("# header\n5 4\n") == "edges"
    assert sniff_format("") == "edges"


def test_load_graph_honors_override(tmp_path, fig1):
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(fig1))
    assert load_graph(path) == fig1
    assert load_graph(path, fmt="edges") == fig1
    with pytest.raises(ParseError):
        load_graph(path, fmt="dimacs")


def test_report_json_round_trip(fig1):
    cfg = SolverConfig(gamma=5.0, alpha=0.5, iterations=40, batch_size=8, seed=3)
    rep = solve(fig1, cfg, workers=1, source="unit")
    doc = json.loads(write_report(rep, "json"))
    assert doc["instance"] == {"n": 5, "m": 4, "source": "unit", "seed": 3}
    assert doc["config"]["gamma"] == 5.0
    assert doc["config"]["complement_term_enabled"] is True
    assert doc["best_size"] == 3
    assert sorted(doc["best_set"]) == doc["best_set"]
    assert doc["mis_found_count"] >= 1
    assert doc["trace"] and len(doc["trace"][0]) == 2


def test_report_of_numpy_settings_round_trips(fig1):
    # numpy numbers are stored as Python ones, so the report can be written
    cfg = SolverConfig(
        gamma=np.float32(5.0), alpha=np.float64(0.5), iterations=np.int64(20),
        batch_size=np.int32(4), batch_count=np.int64(2), seed=np.uint8(3), time_limit=np.int64(60),
    )
    assert [type(cfg.iterations), type(cfg.seed), type(cfg.gamma), type(cfg.time_limit)] == [int, int, float, float]
    doc = json.loads(write_report(solve(fig1, cfg, workers=1), "json"))
    assert doc["config"] | {"seed": doc["instance"]["seed"]} == {
        "gamma": 5.0, "alpha": 0.5, "iterations": 20, "batch_size": 4, "batch_count": 2,
        "init_scheme": "random", "eta": 2.25, "time_limit": 60.0, "complement_term_enabled": True, "seed": 3,
    }


def test_report_csv_is_trace(fig1):
    cfg = SolverConfig(gamma=5.0, alpha=0.5, iterations=40, batch_size=8, batch_count=3, seed=3)
    rep = solve(fig1, cfg, workers=1)
    lines = write_report(rep, "csv").strip().splitlines()
    assert lines[0] == "elapsed_ms,best_size"
    assert len(lines) == 1 + 3
    for row in lines[1:]:
        ms, size = row.split(",")
        float(ms)
        assert int(size) == 3


def test_write_report_rejects_unknown_format(fig1):
    rep = solve(fig1, SolverConfig(gamma=5.0, iterations=5, batch_size=2), workers=1)
    with pytest.raises(ValueError):
        write_report(rep, "xml")
