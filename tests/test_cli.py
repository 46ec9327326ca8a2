"""End-to-end command-line behavior, driven in process via cli.main."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import temporank as tr
from temporank import cli
from temporank.accumulate import truncate
from temporank.pagerank import trajectory_discrete
from temporank.schedules import (ConstantDamping, ExponentialDecay,
                                 UniformPersonalization)

TWO_CYCLE = "nodes 2\ninstant 1.0\n1 2 1.0\n2 1 1.0\n"
THREE_NODE = "nodes 3\ninstant 0.0\n1 2 1.5\n2 3 0.25\ninstant 1.0\n1 2 2.0\n2 1 1.0\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args):
    """`python ARGS` in a child process that imports this same package."""
    src = os.path.dirname(os.path.dirname(tr.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def run_module(*argv):
    """`python -m temporank ARGV` in a child process that imports this same package."""
    return run_python("-m", "temporank", *argv)


def test_cli_import_leaves_scipy_linalg_out():
    # scipy.linalg adds about 0.1 s to each process's start-up; solves use np.linalg
    result = run_python("-c", "import sys, temporank.cli; print(sorted("
                              "m for m in sys.modules if m.startswith('scipy.linalg')))")
    assert (result.returncode, result.stdout) == (0, "[]\n")


NON_FINITE_GRIDS = [("0,inf,3", "grid 0.0,inf,3: start and step must be finite"),
                    ("0,nan,3", "grid 0.0,nan,3: start and step must be finite"),
                    ("nan,1,3", "grid nan,1.0,3: start and step must be finite"),
                    ("0,1e308,3", "grid 0.0,1e+308,3: a point overflows"),
                    ("-inf,1,2", "grid -inf,1.0,2: start and step must be finite"),
                    ("-Infinity,1,2", "grid -inf,1.0,2: start and step must be finite"),
                    ("-NaN,1,2", "grid nan,1.0,2: start and step must be finite"),
                    ("-1,-INF,2", "grid -1.0,-inf,2: start and step must be finite")]


def csv_rows(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return lines[0], [line.split(",") for line in lines[1:]]


@pytest.fixture
def synthetic5_file(tmp_path):
    path = tmp_path / "synthetic5.txt"
    tr.save_network(truncate(tr.synthetic_five_node(), 5), str(path))
    return str(path)


class TestCompute:
    def test_csv_document(self, capsys, synthetic5_file):
        code, out, err = run_cli(capsys, "compute", "--network", synthetic5_file)
        assert code == 0
        assert out.startswith("# 20")  # ISO timestamp comment
        header, rows = csv_rows(out)
        assert header == "instant,node,score"
        assert len(rows) == 25
        assert [row[1] for row in rows[:5]] == ["1", "2", "3", "4", "5"]
        for k in range(5):
            total = sum(float(row[2]) for row in rows[5 * k:5 * k + 5])
            assert total == pytest.approx(1.0, abs=1e-10)
        assert "5 instants, n=5" in err

    def test_scores_round_trip_exactly(self, capsys, synthetic5_file):
        code, out, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--no-header")
        assert code == 0
        _, rows = csv_rows(out)
        expected = trajectory_discrete(
            truncate(tr.synthetic_five_node(), 5), ExponentialDecay(1.0),
            ConstantDamping(0.85), UniformPersonalization())
        parsed = np.array([float(row[2]) for row in rows]).reshape(5, 5)
        assert np.array_equal(parsed, expected.vectors)
        instants = np.array([float(row[0]) for row in rows]).reshape(5, 5)
        assert np.array_equal(instants[:, 0], expected.instants)

    def test_no_header_is_deterministic(self, capsys, synthetic5_file):
        _, first, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                              "--no-header")
        _, second, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--no-header")
        assert first == second
        assert first.startswith("instant,node,score\n")

    def test_threads_do_not_change_bytes(self, capsys, synthetic5_file):
        outputs = []
        for threads in ("1", "4"):
            _, out, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                                "--no-header", "--threads", threads)
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_threads_env_variable(self, capsys, monkeypatch, synthetic5_file):
        _, baseline, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                                 "--no-header")
        monkeypatch.setenv("TEMPORANK_THREADS", "3")
        code, out, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--no-header")
        assert code == 0
        assert out == baseline

    def test_json_document(self, capsys, synthetic5_file):
        code, out, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 5
        assert payload[0]["instant"] == 0.0
        assert len(payload[0]["scores"]) == 5
        assert sum(payload[-1]["scores"]) == pytest.approx(1.0, abs=1e-10)

    def test_output_file(self, capsys, tmp_path, synthetic5_file):
        target = tmp_path / "scores.csv"
        code, out, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--no-header", "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("instant,node,score\n")

    def test_dump_config_reproduces_run(self, capsys, tmp_path, synthetic5_file):
        dumped = tmp_path / "resolved.cfg"
        _, first, _ = run_cli(capsys, "compute", "--network", synthetic5_file,
                              "--no-header", "--damping", "0.7",
                              "--dump-config", str(dumped))
        _, second, _ = run_cli(capsys, "compute", "--config", str(dumped))
        assert first == second

    def test_preset_continuous_run(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                               "--grid-count", "3", "--quad-tol", "1e-8",
                               "--no-header")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "instant,node,score"
        assert len(rows) == 15
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0

    def test_network_and_preset_conflict(self, capsys, synthetic5_file):
        code, _, err = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--preset", "paper-synthetic")
        assert code == 1
        assert "not both" in err

    def test_missing_network_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", "--network",
                               str(tmp_path / "void.txt"))
        assert code == 2
        assert "network source not found" in err

    def test_no_network_source(self, capsys):
        code, _, err = run_cli(capsys, "compute")
        assert code == 1
        assert "no network source" in err

    def test_negative_rate_over_a_long_span(self, capsys, tmp_path):
        # e^{1000} overflows a float; the streamed accumulation never forms it
        path = tmp_path / "long.txt"
        path.write_text("nodes 2\ninstant 0.0\n1 2 1.0\ninstant 500.0\n2 1 1.0\n"
                        "instant 1000.0\n1 2 2.0\n")
        code, out, err = run_cli(capsys, "compute", "--network", str(path),
                                 "--rate", "-1", "--no-header")
        assert code == 0, err
        _, rows = csv_rows(out)
        scores = np.array([float(row[2]) for row in rows])
        assert len(scores) == 6 and np.isfinite(scores).all()
        assert scores[2:] == pytest.approx(np.full(4, 0.5), abs=1e-12)

    def test_negative_rate_in_exponent_form(self, capsys):
        # argparse alone reads `-1e-05` as an option and exits 2
        outputs = []
        for rate in (["--rate", "-1e-05"], ["--rate=-1e-05"]):
            code, out, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                                     "--grid-count", "3", "--no-header", *rate)
            assert code == 0, err
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("argv,dest,expected", [
        (["compute", "--tol", "-2.5E+3"], "tol", -2500.0),
        (["converge", "--quad-tol", "-.5e1"], "quad_tol", -5.0),
        (["localize", "--damping", "-1e-3"], "damping", "-1e-3"),
        (["compute", "--grid", "-1e-3,0.5,3"], "grid", "-1e-3,0.5,3"),
        (["ingest", "--events", "x", "--grid", "-2,1E1,3"], "grid", "-2,1E1,3"),
    ])
    def test_negative_exponent_values_parse(self, argv, dest, expected):
        args = cli._build_parser().parse_args(argv)
        assert getattr(args, dest) == expected

    def test_non_utf8_network_file(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"nodes 2\ninstant 0\n1 2 1\xff\n")
        code, _, err = run_cli(capsys, "compute", "--network", str(path))
        assert code == 1
        assert err == "error: line 3: not UTF-8 text: byte 0xff at column 6\n"

    @pytest.mark.parametrize("content,message", [
        (b"[network]\npreset = caf\xe9\n",
         "line 2: not UTF-8 text: byte 0xe9 at column 13"),
        (b"preset = paper-synthetic\n", "line 1: File contains no section headers."),
    ])
    def test_unreadable_config(self, capsys, tmp_path, content, message):
        path = tmp_path / "run.cfg"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "compute", "--config", str(path))
        assert code == 1
        assert out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("flag,name", [("--tol", "solver tol"),
                                           ("--quad-tol", "quadrature tol")])
    def test_negative_tolerance_rejected(self, capsys, flag, name):
        code, out, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                                 "--grid-count", "3", flag, "-1")
        assert code == 1
        assert out == ""
        assert err == f"error: {name} must be positive and finite, got -1.0\n"

    @pytest.mark.parametrize("argv,message", [
        (["--max-iter", "0"], "solver max-iter must be >= 1, got 0"),
        (["--max-iter", "-5"], "solver max-iter must be >= 1, got -5"),
        (["--max-iter", "0", "--solver", "power"], "solver max-iter must be >= 1, got 0"),
        (["--quad-max-subdiv", "-1"], "quadrature max-subdiv must be >= 0, got -1"),
    ])
    def test_bad_budget_rejected(self, capsys, argv, message):
        # the direct solver never reads max-iter, so only the check can catch it
        code, out, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                                 "--grid-count", "3", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_zero_subdivisions_is_a_budget(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                               "--grid-count", "3", "--quad-max-subdiv", "0", "--no-header")
        assert code == 0, err

    @pytest.mark.parametrize("content,fragment", [
        (b"0.2 0.2 0.2 0.2 0.2\nabc 0.2 0.2 0.2 0.2\n", "not a table of numbers"),
        (b"0.2 0.2 0.2 0.2 0.2\n0.5 0.5\n", "not a table of numbers"),
        (b"0.2 0.2 0.2 0.2 0.2\n0.2 0.2 \xff 0.2 0.2\n",
         "line 2: not UTF-8 text: byte 0xff at column 9"),
    ])
    def test_malformed_personalization_file(self, capsys, tmp_path, content, fragment):
        path = tmp_path / "v.txt"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                                 "--grid-count", "3", "--personalization", f"file:{path}")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ")
        assert fragment in err

    def test_empty_personalization_file(self, tmp_path):
        path = tmp_path / "EMPTY"
        path.write_bytes(b"")
        result = run_module("compute", "--preset", "paper-synthetic",
                            "--grid-count", "3", "--personalization", f"file:{path}")
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == f"error: {path}: no rows of numbers\n"

    def test_integrand_overflow_names_the_edge(self, capsys, tmp_path):
        # passes the sampled validation, but e^800 at t = 0.51 overflows
        path = tmp_path / "net.txt"
        path.write_text("nodes 2\ninterval 0 1\n"
                        "edge 1 2 exp(800-1e7*(t-0.51)^2)\nedge 2 1 1\n")
        assert run_cli(capsys, "validate", str(path))[0] == 0
        code, out, err = run_cli(capsys, "compute", "--network", str(path),
                                 "--grid-count", "101")
        assert code == 1
        assert out == ""
        assert err.startswith("error: integrand of edge (1, 2) overflows at s=")
        assert err.count("\n") == 1

    def test_bad_damping_specs(self, capsys, synthetic5_file):
        code, _, err = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--damping", "linear:0.5")
        assert code == 1
        assert "linear:START:END" in err
        code, _, err = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--damping", "high")
        assert code == 1
        assert "not a number" in err

    def test_bad_personalization_spec(self, capsys, synthetic5_file):
        code, _, err = run_cli(capsys, "compute", "--network", synthetic5_file,
                               "--personalization", "fame")
        assert code == 1
        assert "inverse-input or file:PATH" in err

    @pytest.mark.parametrize("grid, message", NON_FINITE_GRIDS)
    def test_non_finite_grid(self, capsys, grid, message):
        code, out, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                                 "--grid", grid)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_grid_flags_conflict(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                               "--grid", "0,0.5,3", "--grid-count", "5")
        assert code == 1
        assert "not both" in err


class TestConverge:
    def test_error_shrinks_with_partition_size(self, capsys):
        code, out, err = run_cli(capsys, "converge", "--preset",
                                 "paper-synthetic", "--sizes", "2,5",
                                 "--quad-tol", "1e-9", "--no-header")
        assert code == 0
        assert "N=2:" in err and "N=5:" in err
        header, rows = csv_rows(out)
        assert header == "size,instant,node,abs_error"
        assert len(rows) == 2 * 5 + 5 * 5
        worst = {}
        for row in rows:
            size = int(row[0])
            worst[size] = max(worst.get(size, 0.0), float(row[3]))
        assert worst[2] > worst[5]

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--preset", "paper-synthetic",
                               "--sizes", "2,3", "--quad-tol", "1e-9",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [entry["size"] for entry in payload] == [2, 3]
        assert payload[0]["max_error"] > payload[1]["max_error"]

    def test_rejects_discrete_network(self, capsys, synthetic5_file):
        code, _, err = run_cli(capsys, "converge", "--network", synthetic5_file)
        assert code == 1
        assert "continuous" in err

    def test_rejects_tiny_sizes(self, capsys):
        code, _, err = run_cli(capsys, "converge", "--preset", "paper-synthetic",
                               "--sizes", "1,5")
        assert code == 1
        assert ">= 2" in err


class TestLocalize:
    def test_two_cycle_bounds(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(TWO_CYCLE)
        code, out, _ = run_cli(capsys, "localize", "--network", str(path),
                               "--no-header")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "instant,node,lo,hi"
        assert len(rows) == 2
        for row in rows:
            assert float(row[2]) == pytest.approx(17 / 37, abs=1e-13)
            assert float(row[3]) == pytest.approx(20 / 37, abs=1e-13)

    def test_node_subset(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(TWO_CYCLE)
        code, out, _ = run_cli(capsys, "localize", "--network", str(path),
                               "--nodes", "2", "--no-header")
        assert code == 0
        _, rows = csv_rows(out)
        assert [row[1] for row in rows] == ["2"]

    def test_bounds_contain_computed_scores(self, capsys, synthetic5_file):
        _, bounds_out, _ = run_cli(capsys, "localize", "--network",
                                   synthetic5_file, "--no-header")
        _, score_out, _ = run_cli(capsys, "compute", "--network",
                                  synthetic5_file, "--no-header")
        _, bound_rows = csv_rows(bounds_out)
        bounds = {(row[0], row[1]): (float(row[2]), float(row[3]))
                  for row in bound_rows}
        _, score_rows = csv_rows(score_out)
        assert len(score_rows) == len(bounds) == 25
        for row in score_rows:
            lo, hi = bounds[(row[0], row[1])]
            assert lo - 1e-12 <= float(row[2]) <= hi + 1e-12

    def test_continuous_network_uses_grid(self, capsys):
        code, out, _ = run_cli(capsys, "localize", "--preset", "paper-synthetic",
                               "--grid-count", "3", "--quad-tol", "1e-8",
                               "--no-header")
        assert code == 0
        _, rows = csv_rows(out)
        assert len(rows) == 15
        for row in rows:
            lo, hi = float(row[2]), float(row[3])
            assert 0.0 <= lo <= hi <= 1.0

    def test_threads_do_not_change_bytes(self, capsys):
        runs = [run_cli(capsys, "localize", "--preset", "paper-synthetic", "--grid-count", "11",
                        "--no-header", "--threads", threads) for threads in ("1", "2")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("nodes", ["6", "1,6", "0"])
    def test_node_outside_range_named_one_based(self, capsys, nodes):
        code, out, err = run_cli(capsys, "localize", "--preset", "paper-synthetic",
                                 "--grid-count", "3", "--nodes", nodes)
        assert code == 1
        assert out == ""
        assert err == "error: node subset outside 1..5\n"

    def test_bad_node_flag(self, capsys, tmp_path):
        path = tmp_path / "cycle.txt"
        path.write_text(TWO_CYCLE)
        code, _, err = run_cli(capsys, "localize", "--network", str(path),
                               "--nodes", "first")
        assert code == 1
        assert "not an integer" in err


class TestFileSystemErrors:
    @pytest.mark.parametrize("argv", [
        ["compute", "--network", "{dir}"],
        ["compute", "--preset", "paper-synthetic", "--grid-count", "3", "--output", "{dir}"],
        ["compute", "--config", "{dir}"],
        ["compare", "{dir}", "{dir}"],
        ["validate", "{dir}"],
        ["ingest", "--events", "{dir}", "--grid", "0,1,2"],
    ])
    def test_directory_in_place_of_a_file(self, capsys, tmp_path, argv):
        code, _, err = run_cli(capsys, *[arg.format(dir=tmp_path) for arg in argv])
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert str(tmp_path) in err


class TestCompare:
    @pytest.fixture
    def config_pair(self, tmp_path, synthetic5_file):
        paths = []
        for kind in ("uniform", "input"):
            path = tmp_path / f"{kind}.cfg"
            path.write_text(f"[network]\nfile = {synthetic5_file}\n\n"
                            f"[personalization]\nkind = {kind}\n")
            paths.append(str(path))
        return paths

    def test_tau_series(self, capsys, config_pair):
        code, out, _ = run_cli(capsys, "compare", *config_pair, "--no-header")
        assert code == 0
        header, rows = csv_rows(out)
        assert header == "instant,tau,pair_label"
        assert len(rows) == 5
        assert all(row[2] == "uniform vs input" for row in rows)
        assert float(rows[0][1]) == pytest.approx(5 / 9, abs=1e-12)
        assert [row[1] for row in rows[1:]] == ["1.0"] * 4

    @pytest.mark.parametrize("method", ["direct", "power"])
    def test_threads_do_not_change_bytes(self, capsys, config_pair, method):
        for path in config_pair:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"\n[solver]\nmethod = {method}\n")
        runs = [run_cli(capsys, "compare", *config_pair, "--no-header", "--threads", threads)
                for threads in ("1", "2")]
        assert runs[0][0] == 0
        assert runs[0] == runs[1]

    def test_json_document(self, capsys, config_pair):
        code, out, _ = run_cli(capsys, "compare", *config_pair,
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["pair_label"] == "uniform vs input"
        assert payload[-1]["tau"] == 1.0

    def test_shared_network_is_loaded_once(self, capsys, monkeypatch, tmp_path,
                                           config_pair, synthetic5_file):
        calls = []
        load = tr.netfile.load_network
        monkeypatch.setattr(tr.netfile, "load_network",
                            lambda source: calls.append(source) or load(source))
        code, shared, _ = run_cli(capsys, "compare", *config_pair, "--no-header")
        assert code == 0
        assert calls == [synthetic5_file]
        # a second copy of the file is a different source: loaded again
        copy = tmp_path / "copy.txt"
        shutil.copyfile(synthetic5_file, copy)
        other = tmp_path / "other.cfg"
        other.write_text(f"[network]\nfile = {copy}\n\n[personalization]\nkind = input\n")
        calls.clear()
        code, separate, _ = run_cli(capsys, "compare", config_pair[0], str(other),
                                    "--no-header")
        assert code == 0
        assert calls == [synthetic5_file, str(copy)]
        assert separate == shared

    def test_missing_config(self, capsys, tmp_path, config_pair):
        code, _, err = run_cli(capsys, "compare", config_pair[0],
                               str(tmp_path / "gone.cfg"))
        assert code == 2
        assert "error:" in err


class TestIngest:
    def events_file(self, tmp_path, text, name="events.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_end_to_end(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "% toy stream\n"
                                            "5 1 +1 0\n"
                                            "1 2 +1 43200\n"
                                            "5 1 -1 86400\n")
        target = tmp_path / "net.txt"
        code, out, err = run_cli(capsys, "ingest", "--events", events,
                                 "--grid", "0,1,3", "--unit", "day",
                                 "--output", str(target))
        assert code == 0
        assert "no initial adjacency" in err
        summary = json.loads(out)
        assert summary == {"n": 3, "events": 3, "adds": 2, "removes": 1,
                           "distinct_added": 2, "distinct_removed": 1,
                           "warnings": 0}
        net = tr.load_network(str(target))
        assert net.n == 3  # ids 1, 2, 5 compacted
        np.testing.assert_array_equal(net.instants, [0.0, 1.0, 2.0])
        assert net.snapshot_at(1)[2, 0] == 1.0
        assert net.snapshot_at(1)[0, 1] == 0.0
        assert net.snapshot_at(2)[2, 0] == 0.0  # removal lands on the instant
        assert net.snapshot_at(2)[0, 1] == 1.0
        assert net.snapshot_at(3)[0, 1] == 1.0

    def test_stdout_output_and_summary_on_stderr(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 +1 0\n")
        code, out, err = run_cli(capsys, "ingest", "--events", events,
                                 "--grid", "0,1,2")
        assert code == 0
        assert "nodes 2" in out
        assert '"events": 1' in err

    def test_strict_rejects_wide_delta(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 +2 0\n")
        code, _, err = run_cli(capsys, "ingest", "--events", events,
                               "--grid", "0,1,2")
        assert code == 1
        assert "delta out of range" in err

    def test_lenient_skips_wide_delta(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 +2 0\n1 2 +1 0\n")
        target = tmp_path / "net.txt"
        code, out, _ = run_cli(capsys, "ingest", "--events", events,
                               "--grid", "0,1,2", "--lenient",
                               "--output", str(target))
        assert code == 0
        summary = json.loads(out)
        assert summary["events"] == 1
        assert summary["warnings"] == 1

    def test_initial_seed(self, capsys, tmp_path):
        seed = tmp_path / "seed.txt"
        seed.write_text("nodes 2\ninstant 0.0\n1 2 1.0\n")
        events = self.events_file(tmp_path, "2 1 +1 43200\n")
        target = tmp_path / "net.txt"
        code, _, _ = run_cli(capsys, "ingest", "--events", events,
                             "--grid", "0,1,2", "--unit", "day",
                             "--initial", str(seed), "--output", str(target))
        assert code == 0
        net = tr.load_network(str(target))
        assert net.snapshot_at(1)[0, 1] == 1.0
        assert net.snapshot_at(1)[1, 0] == 0.0
        assert net.snapshot_at(2)[1, 0] == 1.0

    def test_clamp_policy(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 -1 0\n")
        target = tmp_path / "net.txt"
        code, _, err = run_cli(capsys, "ingest", "--events", events,
                               "--grid", "0,1,2")
        assert code == 1
        assert "decrement below zero" in err
        code, out, _ = run_cli(capsys, "ingest", "--events", events,
                               "--grid", "0,1,2", "--policy", "clamp",
                               "--output", str(target))
        assert code == 0
        assert json.loads(out)["warnings"] == 1
        net = tr.load_network(str(target))
        assert net.snapshot_at(1)[0, 1] == 0.0

    def test_missing_events_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "ingest", "--events",
                               str(tmp_path / "void.txt"), "--grid", "0,1,2")
        assert code == 2
        assert "event file not found" in err

    def test_non_utf8_events(self, capsys, tmp_path):
        path = tmp_path / "events.txt"
        path.write_bytes(b"1 2 +1 0\n% caf\xe9\n2 1 +1 5\n")
        code, _, err = run_cli(capsys, "ingest", "--events", str(path),
                               "--grid", "0,1,2")
        assert code == 1
        assert err == "error: line 2: not UTF-8 text: byte 0xe9 at column 6\n"

    @pytest.mark.parametrize("grid, message", NON_FINITE_GRIDS + [
        ("0,1e304,3 --unit day", "grid 0.0,1e+304,3: a point overflows in seconds"),
        ("-1e304,1,2 --unit day", "grid -1e+304,1.0,2: a point overflows in seconds")])
    def test_non_finite_grid(self, capsys, tmp_path, grid, message):
        events = self.events_file(tmp_path, "1 2 +1 0\n")
        spec, *unit = grid.split()
        code, out, err = run_cli(capsys, "ingest", "--events", events, f"--grid={spec}", *unit)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_bad_grid_spec(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 +1 0\n")
        code, _, err = run_cli(capsys, "ingest", "--events", events,
                               "--grid", "0,1")
        assert code == 1
        assert "START,STEP,COUNT" in err


class TestValidate:
    def test_ok_discrete(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(THREE_NODE)
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert out == "ok: discrete network, n=3\n"

    def test_ok_continuous(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        tr.save_network(tr.synthetic_five_node(), str(path))
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == 0
        assert out == "ok: continuous network, n=5\n"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "validate", str(tmp_path / "void.txt"))
        assert code == 2
        assert "network source not found" in err

    def test_format_error_reported(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2\nnonsense 5\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "unknown construct" in err

    def test_non_utf8_file_reported(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"# \xff\xfe\nnodes 2\ninstant 0\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert out == ""
        assert err == "line 1: not UTF-8 text: byte 0xff at column 3\n"

    def test_invariant_violation_reported(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2\ninterval 0 1\nedge 1 2 t-0.5\n")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "negative" in err

    def test_edges_named_one_based(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2\ninterval 0 1\nedge 1 2 t-2\n")
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert err == "edge (1, 2): negative value on sample grid\n"

    def test_overflowing_edge_reported_without_a_warning(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 2\ninterval 0 1000\nedge 1 2 exp(t)\n")
        result = run_module("validate", str(path))
        assert result.returncode == 1
        assert result.stderr == "edge (1, 2): non-finite value on sample grid\n"

    @pytest.mark.parametrize("expression", ["10.0^400*t", "2^5000*t", "1/0*t", "0^-1+t",
                                            "(-1)^0.5*t"])
    def test_non_finite_constant_arithmetic_reported(self, capsys, tmp_path, expression):
        path = tmp_path / "net.txt"
        path.write_text(f"nodes 2\ninterval 0 1\nedge 1 2 {expression}\nedge 2 1 1\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert (code, out, err) == (1, "", "edge (1, 2): non-finite value on sample grid\n")
        code, out, err = run_cli(capsys, "compute", "--network", str(path),
                                 "--grid-count", "5")
        assert (code, out) == (1, "")
        assert err == "error: edge (1, 2): non-finite value on sample grid\n"

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(THREE_NODE)
        result = run_module("validate", str(path))
        assert result.returncode == 0
        assert result.stdout == "ok: discrete network, n=3\n"
