import json

import numpy as np
import pytest

import quadmis
import quadmis.cli as cli
import quadmis.optimizer as opt
from quadmis import Graph, SolverConfig, bench_suite, load_graph, parse_suite, solve, write_edge_list
from quadmis.cli import main
from quadmis.errors import InputError


@pytest.fixture
def graph_file(tmp_path):
    g = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    path = tmp_path / "g.edges"
    path.write_text(write_edge_list(g))
    return str(path)


def test_public_names_are_bound():
    missing = [name for name in quadmis.__all__ if not hasattr(quadmis, name)]
    assert missing == []


def test_gen_then_solve_round_trip(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert main(["gen", "er", "--n", "25", "--p", "0.2", "--seed", "1", "-o", str(out)]) == 0
    rc = main([
        "solve", str(out), "--gamma", "n", "--iters", "60",
        "--batch-size", "8", "--seed", "0",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["instance"]["n"] == 25
    assert doc["best_size"] >= 1


def test_solve_report_names_the_product_backend(tmp_path, graph_file, capsys):
    # 8m >= n^2 picks dense products: 32 >= 25 for the 5-node graph, not so
    # for one edge on 10 nodes
    sparse = tmp_path / "sparse.edges"
    sparse.write_text(write_edge_list(Graph.from_edge_list(10, [(0, 1)])))
    for path, backend in ((graph_file, "dense"), (str(sparse), "csr")):
        assert main(["solve", path, "--iters", "20", "--batch-size", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["backend"] == backend


def test_solve_gamma_forms(graph_file, capsys):
    for flag in ("n", "6.5"):
        assert main(["solve", graph_file, "--gamma", flag, "--iters", "30", "--batch-size", "4"]) == 0
        capsys.readouterr()


@pytest.mark.parametrize("n", [0, 1])
def test_solve_tiny_graph_with_default_gamma(tmp_path, capsys, n):
    # "strict-n" is 2 below two nodes, so the default config is valid
    path = tmp_path / "tiny.edges"
    path.write_text(write_edge_list(Graph.from_edge_list(n, [])))
    assert main(["solve", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["gamma"] == 2.0
    assert doc["best_set"] == list(range(n))


def test_bench_tiny_graph_with_default_gamma(tmp_path, capsys):
    suite = tmp_path / "tiny.json"
    suite.write_text(json.dumps({"instances": [{"gnm": [1]}]}))
    assert main(["bench", str(suite)]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["error"] == "" and row["best_size"] == 1


def test_solve_rejects_bad_gamma(graph_file, capsys):
    for flag in ("huge", "wei"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", graph_file, "--gamma", flag])
        assert exc.value.code == 2
        assert "'n' or a number" in capsys.readouterr().err


def test_solve_rejects_settings_beyond_float32(graph_file, capsys):
    # the kernel runs in float32, where these would round to inf, or where
    # gamma times the graph's largest degree (3) would, or the square of
    # that product in the Adam update
    for argv, message in (
        (["--gamma", "1e39"], "the largest float32"),
        (["--lr", "1e39"], "the largest float32"),
        (["--gamma", "3e38"], "overflows float32"),
        (["--gamma", "1e19"], "the Adam update squares them"),
    ):
        assert main(["solve", graph_file, *argv, "--iters", "5", "--batch-size", "2"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_solve_rejects_an_lr_whose_adam_step_overflows(graph_file, capsys):
    # 1e38 is finite in float32, but the Adam step multiplies it by the
    # mean gradient and divides by as little as 1e-8
    assert main(["solve", graph_file, "--lr", "1e38", "--iters", "5", "--batch-size", "2"]) == 2
    err = capsys.readouterr().err
    assert "the Adam step" in err and "Traceback" not in err


def test_solve_mean_init(tmp_path, graph_file, capsys):
    mean = tmp_path / "mean.txt"
    np.savetxt(mean, np.array([1.0, 0.0, 0.0, 1.0, 1.0]))
    rc = main([
        "solve", graph_file, "--gamma", "n", "--init", f"mean:{mean}",
        "--eta", "0", "--iters", "5", "--batch-size", "1",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_set"] == [0, 3, 4]


def test_solve_rejects_a_mean_file_of_the_wrong_length(tmp_path, graph_file, capsys):
    # solve checks the mean's length against the graph's 5 nodes
    mean = tmp_path / "mean.txt"
    for length in (4, 6):
        np.savetxt(mean, np.full(length, 0.5))
        assert main(["solve", graph_file, "--init", f"mean:{mean}"]) == 2
        err = capsys.readouterr().err
        assert f"error: mean vector has {length} entries, graph has 5 nodes" in err and "Traceback" not in err


def test_solve_rejects_bad_init(graph_file, capsys):
    assert main(["solve", graph_file, "--init", "psychic"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/no/such/file.edges"]) == 2


def test_solve_rejects_node_count_beyond_int32(tmp_path, capsys):
    path = tmp_path / "huge.dimacs"
    path.write_text("p edge 2147483648 0\n")
    assert main(["solve", str(path)]) == 2
    assert "32-bit" in capsys.readouterr().err


def test_solve_csv_output(graph_file, capsys):
    rc = main([
        "solve", graph_file, "--gamma", "n", "--iters", "30",
        "--batch-size", "4", "--output", "csv",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "elapsed_ms,best_size"


def test_solve_no_complement_flag(graph_file, capsys):
    rc = main([
        "solve", graph_file, "--gamma", "2.5", "--no-complement-term",
        "--iters", "30", "--batch-size", "4",
    ])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["complement_term_enabled"] is False


def test_workers_env_override(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("QUADMIS_WORKERS", "2")
    assert main(["solve", graph_file, "--gamma", "n", "--iters", "20", "--batch-size", "4"]) == 0
    capsys.readouterr()


def test_workers_env_rejects_junk(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("QUADMIS_WORKERS", "many")
    assert main(["solve", graph_file, "--iters", "5", "--batch-size", "2"]) == 2
    assert "QUADMIS_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -3, 1.5, True, "2"])
def test_workers_below_one_rejected(tmp_path, graph_file, capsys, monkeypatch, count):
    # a count below 1 is bad input, and so is one that is not an integer
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"config": {"batch_size": 2}, "instances": [{"gnm": [10]}]}))
    with pytest.raises(InputError, match="worker count"):
        solve(load_graph(graph_file), SolverConfig(gamma=5.0, iterations=5, batch_size=2), workers=count)
    with pytest.raises(InputError, match="worker count"):
        bench_suite(parse_suite(suite.read_text()), workers=count)
    if type(count) is not int:
        return  # the CLI parses the count as an integer
    assert main(["solve", graph_file, "--iters", "5", "--batch-size", "2", "--workers", str(count)]) == 2
    assert main(["bench", str(suite), "--workers", str(count)]) == 2
    monkeypatch.setenv("QUADMIS_WORKERS", str(count))
    assert main(["solve", graph_file, "--iters", "5", "--batch-size", "2"]) == 2
    assert "worker count" in capsys.readouterr().err


def test_numerical_failure_exits_3(graph_file, capsys, monkeypatch):
    # no run certified and some went non-finite
    monkeypatch.setattr(opt, "gradient_from_product", lambda p, X, P: np.full(X.shape, np.nan))
    assert main(["solve", graph_file, "--iters", "5", "--batch-size", "2"]) == 3


def test_internal_value_error_is_not_bad_input(graph_file, monkeypatch):
    # a ValueError from inside the program is a fault, not bad input: it
    # must surface with its traceback instead of becoming exit code 2
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "solve", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", graph_file, "--iters", "5", "--batch-size", "2"])


def test_setting_errors_exit_2(tmp_path, graph_file, capsys):
    bad_suite = tmp_path / "bad.json"
    bad_suite.write_text("{not json")
    list_suite = tmp_path / "list.json"
    list_suite.write_text("[]")
    junk_suites = []
    for i, doc in enumerate((
        {"instances": 5},
        {"instances": [3]},
        {"time_limit": "soon", "instances": [{"gnm": [10]}]},
        {"config": {"preset": 3}, "instances": [{"gnm": [10]}]},
        {"config": {"batch_size": "x"}, "instances": [{"gnm": [10]}]},
        {"config": {"bogus": 1}, "instances": [{"gnm": [10]}]},
        {"time_limit": 0, "instances": [{"gnm": [10]}]},
        {"config": {"mean": [0.5] * 10}, "instances": [{"gnm": [10]}]},
        {"config": {"time_limit": 5}, "instances": [{"gnm": [10]}]},
        {"instances": [{"gnm": []}]},
        {"instances": [{"gnm": [10.9]}]},
        {"instances": [{"gnm": [10], "seed": 1.7}]},
        {"instances": [{"er": [10, True]}]},
        {"config": {"gamma": float("inf")}, "instances": [{"gnm": [10]}]},
        {"config": {"gamma": "wei-floor"}, "instances": [{"gnm": [10]}]},
        {"instances": [{"gnm": [10], "sede": 3}]},
        {"instances": [{"er": [10, 0.5], "gnm": [12]}]},
        {"instances": [{"file": "x.edges", "seed": 1}]},
    )):
        path = tmp_path / f"junk{i}.json"
        path.write_text(json.dumps(doc))
        junk_suites.append(["bench", str(path)])
    nan_mean = tmp_path / "nan.mean"
    nan_mean.write_text("nan\n" * 5)
    for argv in (
        ["solve", graph_file, "--lr", "-1"],
        ["solve", graph_file, "--eta", "-1", "--init", "degree"],
        ["solve", graph_file, "--lr", "nan"],
        ["solve", graph_file, "--eta", "nan", "--init", "degree"],
        ["solve", graph_file, "--time-limit", "nan"],
        ["solve", graph_file, "--gamma", "inf"],
        ["solve", graph_file, "--init", f"mean:{nan_mean}"],
        ["gen", "er", "--n", "12", "--p", "1.5"],
        ["gen", "er", "--n", "-5", "--p", "0.1"],
        ["gen", "gnm", "--n", "-3"],
        ["check", graph_file, "--set", "0,x"],
        ["bench", str(bad_suite)],
        ["bench", str(list_suite)],
        *junk_suites,
    ):
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("instance, message", [
    ({"gnm": [-3]}, "n must be non-negative"),
    ({"gnm": [10, -1]}, "m must be non-negative"),
    ({"gnm": [10], "seed": -1}, "seed must be non-negative"),
    ({"er": [10, 1.5]}, "p must lie in [0, 1]"),
    ({"er": [10, -0.1]}, "p must lie in [0, 1]"),
    ({"er": [10, float("nan")]}, "p must lie in [0, 1]"),
    ({"gnm": [10, 46]}, "m=46 exceeds the 45 pairs of 10 nodes"),
], ids=["negative-n", "negative-m", "negative-seed", "p-above-1", "p-below-0", "p-nan", "m-above-pairs"])
def test_bench_rejects_out_of_range_instance(tmp_path, capsys, instance, message):
    # the bad instance comes second: the suite exits 2 before the first runs
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"instances": [{"gnm": [10]}, instance]}))
    assert main(["bench", str(suite)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "ValueError" not in captured.err


def test_gen_gnm_and_dimacs(tmp_path, capsys):
    out = tmp_path / "g.col"
    assert main(["gen", "gnm", "--n", "12", "--m", "20", "--format", "dimacs", "-o", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p edge 12 20")
    assert main(["gen", "er", "--n", "12"]) == 2  # --p required
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["gen", "er", "--n", "5", "--p", "0.1", "--seed", "-1"],
    ["gen", "gnm", "--n", "5", "--m", "3", "--seed", "-4"],
], ids=["er", "gnm"])
def test_gen_rejects_negative_seed(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: seed must be non-negative, got {argv[-1]}" in captured.err
    assert "ValueError" not in captured.err


def test_oracle_command(graph_file, capsys):
    assert main(["oracle", graph_file, "--enumerate"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimum_size"] == 3
    assert doc["all_optima"] == [[0, 3, 4], [2, 3, 4]]


def test_oracle_too_large(tmp_path, capsys):
    g = Graph.from_edge_list(70, [(0, 1)])
    path = tmp_path / "big.edges"
    path.write_text(write_edge_list(g))
    assert main(["oracle", str(path)]) == 2


def test_check_command(graph_file, capsys):
    assert main(["check", graph_file, "--set", "0,3,4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"fast": True, "direct": True, "independent": True, "maximal": True}
    assert main(["check", graph_file, "--set", "0,1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert not doc["fast"] and not doc["independent"]
    assert main(["check", graph_file, "--set", "0,9"]) == 2


def test_bench_command(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({
        "config": {"batch_size": 8, "iterations": 40},
        "instances": [{"gnm": [20], "seed": 0}],
    }))
    assert main(["bench", str(suite), "--output", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("source,n,m,")
    assert main(["bench", str(tmp_path / "nope.json")]) == 2


def test_bench_rejects_a_suite_that_is_not_utf8(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_bytes(b"\xff\xfe\x00bad")
    assert main(["bench", str(suite)]) == 2
    assert "not UTF-8" in capsys.readouterr().err
