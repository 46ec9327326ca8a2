"""End-to-end command-line behavior, driven in process via cli.main."""

import argparse
import json
import math
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

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


def imported_modules(*args):
    """The modules a child `python ARGS` imports, read from its `-X importtime` lines."""
    result = run_python("-X", "importtime", *args)
    assert result.returncode == 0, result.stderr
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


def loads(modules, name):
    """Whether ``modules`` hold module ``name`` or one of its submodules."""
    return any(module == name or module.startswith(name + ".") for module in modules)


#: every submodule of the package
SUBMODULES = [f"temporank.{info.name}" for info in pkgutil.iter_modules(tr.__path__)]
#: what a command that reads or writes a network file but ranks nothing never loads
NO_SOLVERS = ["temporank.accumulate", "temporank.pagerank", "temporank.config", "numpy.ma"]
#: what a command on a preset never loads
NO_FILES = ["temporank.netfile", "temporank.ingest", "temporank.localization",
            "temporank.ranking", "numpy.polynomial"]


# each of scipy.linalg and scipy.sparse adds 0.1-0.2 s to a process's start-up:
# solves use np.linalg, and scipy.sparse loads with the first CSR matrix built;
# a discrete network keeps its matrices as one record of entries, so reading,
# checking, ingesting, truncating and writing one builds none, and neither does the
# direct route; converge feeds the samples of its partitions to the recurrence as
# they are; power iteration and a schedule that reads A(t) build CSR matrices.
# With no bytecode cache every module loaded is also compiled: `import temporank`
# loads no submodule, each command imports the modules it runs, and numpy.ma (which
# np.unique imports) and numpy.polynomial load only with scipy.sparse
@pytest.mark.parametrize("args, loaded, unloaded", [
    (["-c", "import temporank.cli"], ["numpy"], ["scipy.linalg"]),
    (["-c", "import temporank"], ["temporank"], ["numpy", "scipy.sparse", *SUBMODULES]),
    (["-m", "temporank", "compute", "--preset", "paper-synthetic", "--grid-count", "11",
      "--output", os.devnull], ["numpy"], ["scipy.sparse", *NO_FILES]),
    (["-m", "temporank", "converge", "--preset", "paper-synthetic", "--sizes", "3,5",
      "--output", os.devnull], ["numpy"], ["scipy.sparse", "numpy.ma", *NO_FILES]),
    (["-m", "temporank", "converge", "--preset", "paper-synthetic", "--sizes", "3,5",
      "--personalization", "input", "--output", os.devnull], ["scipy.sparse"], []),
    (["-m", "temporank", "validate", "{network}"], ["numpy"], ["scipy.sparse", *NO_SOLVERS]),
    (["-m", "temporank", "ingest", "--events", "{events}", "--grid", "0,1,3",
      "--output", os.devnull], ["numpy"], ["scipy.sparse", *NO_SOLVERS]),
    (["-c", "import temporank; temporank.load_network({network!r})"], ["numpy"],
     ["scipy.sparse", "temporank.accumulate", "numpy.ma"]),
    (["-c", "import temporank as t; t.truncate(t.preset('paper-synthetic'), 5)"],
     ["numpy"], ["scipy.sparse"]),
    (["-m", "temporank", "compute", "--network", "{network}", "--output", os.devnull],
     ["numpy"], ["scipy.sparse"]),
    (["-m", "temporank", "compute", "--network", "{network}", "--solver", "power",
      "--output", os.devnull], ["scipy.sparse"], []),
    (["-m", "temporank", "compute", "--network", "{network}", "--personalization", "input",
      "--output", os.devnull], ["scipy.sparse"], []),
], ids=["cli", "package", "compute", "converge", "converge-input", "validate", "ingest",
        "load", "truncate", "compute-discrete", "compute-power", "compute-input"])
def test_start_up_loads_module_only_when_used(tmp_path, args, loaded, unloaded):
    network, events = tmp_path / "net.txt", tmp_path / "events.tsv"
    network.write_text(THREE_NODE)
    events.write_text("1 2 +1 0\n2 3 +1 1\n1 2 -1 2\n")
    modules = imported_modules(*(arg.format(network=str(network), events=str(events))
                                 for arg in args))
    assert [name for name in loaded if not loads(modules, name)] == []
    assert [name for name in unloaded if loads(modules, name)] == []


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

    def test_stderr_names_the_solver(self, capsys, synthetic5_file):
        _, _, direct = run_cli(capsys, "compute", "--network", synthetic5_file)
        _, _, power = run_cli(capsys, "compute", "--network", synthetic5_file,
                              "--solver", "power")
        assert re.fullmatch(r"5 instants, n=5, direct solve, residual <= \S+\n", direct)
        assert re.fullmatch(r"5 instants, n=5, power iterations <= \d+, residual <= \S+\n",
                            power)

    def test_power_budget_error_names_its_instant(self, capsys, tmp_path):
        # instant 1, a 2-cycle under uniform v, converges at the first iteration
        path = tmp_path / "two.txt"
        path.write_text("nodes 2\ninstant 0.0\n1 2 1.0\n2 1 1.0\ninstant 1.0\n1 1 1.0\n")
        for threads in ("1", "2"):
            code, out, err = run_cli(capsys, "compute", "--network", str(path), "--solver",
                                     "power", "--max-iter", "1", "--threads", threads)
            assert (code, out) == (1, "")
            assert re.fullmatch(r"error: power iteration did not reach 1e-12 within 1 "
                                r"iterations at instant 2 \(last residual \S+\)\n", err)

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

    @pytest.mark.parametrize("flag", ["--network", "--preset"])
    def test_flag_replaces_the_config_network(self, capsys, tmp_path, synthetic5_file, flag):
        # the config names the other source; the flag replaces it instead of conflicting
        value, other, run = synthetic5_file, "preset = paper-synthetic", ["--no-header"]
        if flag == "--preset":      # a discrete network refuses --grid-count
            value, other = "paper-synthetic", f"file = {synthetic5_file}"
            run += ["--grid-count", "3", "--quad-tol", "1e-8"]
        config = tmp_path / "run.cfg"
        config.write_text(f"[network]\n{other}\n", encoding="utf-8")
        want = run_cli(capsys, "compute", flag, value, *run)
        assert want[0] == 0
        assert run_cli(capsys, "compute", "--config", str(config), flag, value, *run) == want

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

    def test_missing_config_file(self, capsys, tmp_path):
        path = tmp_path / "void.cfg"
        assert run_cli(capsys, "compute", "--config", str(path)) == (
            2, "", f"error: config file not found: {path}\n")

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
        (["compute", "--tol", "-2.5E+3"], "solver_tol", -2500.0),
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

    @pytest.mark.parametrize("argv", [
        ["compute", "--grid-count", "{count}"], ["compute", "--grid", "0,0.1,{count}"],
        ["localize", "--grid-count", "{count}"], ["converge", "--sizes", "3,{count}"],
        ["localize", "--grid", "0,0.1,{count}"]])
    @pytest.mark.parametrize("count", [2 ** 63, 10 ** 20])
    def test_count_beyond_an_array_is_one_error_line(self, capsys, argv, count):
        # numpy refused these with a raw ValueError; converge refuses before solving N=3
        argv = [arg.format(count=count) for arg in argv]
        code, out, err = run_cli(capsys, argv[0], "--preset", "paper-synthetic", *argv[1:])
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: [^\n]*: more points than an array can hold\n", err)

    def test_grid_flags_conflict(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--preset", "paper-synthetic",
                               "--grid", "0,0.5,3", "--grid-count", "5")
        assert code == 1
        assert "not both" in err

    @pytest.mark.parametrize("command, grid", [
        ("compute", "--grid"), ("localize", "--grid"), ("compare", None),
        ("compute", "--grid-count"), ("localize", "--grid-count")],
        ids=["compute", "localize", "compare", "compute-count", "localize-count"])
    def test_explicit_grid_on_a_discrete_network_refused(self, capsys, tmp_path, command,
                                                          grid):
        # a discrete network ranks its own instants; a grid given for it is an error, and
        # so is the --grid-count flag, though not a config's count (--dump-config writes one)
        network = tmp_path / "three.net"
        network.write_text(THREE_NODE)
        if command == "compare":
            config = tmp_path / "grid.cfg"
            config.write_text(f"[network]\nfile = {network}\n[grid]\nstart = 0\nstep = 1\n")
            argv = ["compare", str(config), str(config)]
        else:
            argv = [command, "--network", str(network), grid,
                    "0,1,2" if grid == "--grid" else "5"]
        assert run_cli(capsys, *argv) == (
            1, "", "error: a discrete network uses its own instants; give no grid\n")
        if grid == "--grid-count":
            config = tmp_path / "count.cfg"
            config.write_text(f"[network]\nfile = {network}\n[grid]\ncount = 5\n")
            assert run_cli(capsys, command, "--config", str(config))[0] == 0


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
        # the order between successive sizes, from the worst errors: e(N) ~ (N - 1)^-p
        order = math.log(worst[2] / worst[5]) / math.log(4)
        assert err.splitlines()[0] == f"N=2: max |discrete - continuous| = {worst[2]:.6e}"
        assert err.splitlines()[1] == f"N=5: max |discrete - continuous| = {worst[5]:.6e}, " \
            f"observed order {order:.3f} from N=2"

    def test_stderr_reports_first_order(self, capsys):
        # the discrete sum is a Riemann sum of the integral: first order
        code, _, err = run_cli(capsys, "converge", "--preset", "paper-synthetic",
                               "--sizes", "65,129,257", "--output", os.devnull)
        assert code == 0
        orders = [float(line.split("observed order ")[1].split()[0])
                  for line in err.splitlines()[1:]]
        assert len(orders) == 2 and all(0.97 <= order <= 1.01 for order in orders), err

    def test_json_document(self, capsys):
        code, out, _ = run_cli(capsys, "converge", "--preset", "paper-synthetic",
                               "--sizes", "2,3", "--quad-tol", "1e-9",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert [entry["size"] for entry in payload] == [2, 3]
        assert payload[0]["max_error"] > payload[1]["max_error"]

    # an edge function is checked on 33 points when the network is built; these are
    # negative or not finite only between them, at samples of the larger partition;
    # pytest turns a RuntimeWarning from either into an error
    @pytest.mark.parametrize("weight, sizes, problem", [
        ("cos(64*pi*t)+0.9", (5, 65), "negative weight"),   # -0.1 at odd k/64
        ("0/((t-1/3)*(t-2/3))+1", (3, 4), "non-finite weight"),   # 0/0 at 1/3, 2/3
    ], ids=["negative", "not-finite"])
    def test_bad_sample_fails_as_truncate_does(self, capsys, tmp_path, weight, sizes, problem):
        path = tmp_path / "net.txt"
        path.write_text(f"nodes 3\ninterval 0 1\nedge 1 2 {weight}\nedge 2 3 1\nedge 3 1 1\n")
        first, last = sizes
        with pytest.raises(tr.InvalidInputError) as caught:
            truncate(tr.load_network(str(path)), last)
        code, out, err = run_cli(capsys, "converge", "--network", str(path),
                                 "--sizes", f"{first},{last}")
        bad = range(2, last, 2) if problem == "negative weight" else (2, 3)
        assert str(caught.value) == "; ".join(f"snapshot {k}: {problem}" for k in bad)
        assert code == 1 and out == ""
        # a 3-cycle ranks its nodes alike at any weights, so the first size has no error
        assert err.splitlines() == [f"N={first}: max |discrete - continuous| = 0.000000e+00",
                                    f"error: {caught.value}"]

    @pytest.mark.parametrize("argv, code", [
        (["converge", "--sizes", "3,4"], 1), (["compute", "--grid-count", "4"], 0)],
        ids=["converge", "compute"])
    def test_non_finite_sample_warns_of_nothing(self, tmp_path, argv, code):
        # 0/0 at t = 1/3 and 2/3, samples of both commands: a clean error or none,
        # and no RuntimeWarning to turn into a traceback
        path = tmp_path / "net.txt"
        path.write_text("nodes 3\ninterval 0 1\nedge 1 2 0/((t-1/3)*(t-2/3))+1\n"
                        "edge 2 3 1\nedge 3 1 1\n")
        args = ["-m", "temporank", *argv, "--network", str(path), "--no-header"]
        plain, strict = run_python(*args), run_python("-W", "error::RuntimeWarning", *args)
        assert (strict.returncode, strict.stdout, strict.stderr) == \
            (plain.returncode, plain.stdout, plain.stderr)
        assert plain.returncode == code and "Warning" not in plain.stderr

    @pytest.mark.parametrize("grid", [["--grid", "0,0.1,3"], ["--grid-count", "5"],
                                      "[grid]\nstart = 0\nstep = 0.1\n"],
                             ids=["grid", "grid-count", "config"])
    def test_a_grid_is_refused(self, capsys, tmp_path, grid):
        # the partitions are the study's grids; a grid given besides would go unread
        if isinstance(grid, str):
            config = tmp_path / "grid.cfg"
            config.write_text(f"[network]\npreset = paper-synthetic\n{grid}")
            grid = ["--config", str(config)]
        assert run_cli(capsys, "converge", "--preset", "paper-synthetic", "--sizes", "2,3",
                       *grid) == (1, "", "error: a convergence study's grids are its "
                                         "partitions (--sizes); give no grid\n")

    def test_a_configured_grid_count_is_read_as_no_grid(self, capsys, tmp_path):
        # --dump-config writes a count always, so a config's count is accepted
        config = tmp_path / "count.cfg"
        config.write_text("[network]\npreset = paper-synthetic\n[grid]\ncount = 5\n")
        run = ["converge", "--sizes", "2,3", "--no-header"]
        want = run_cli(capsys, *run, "--preset", "paper-synthetic")
        assert want[0] == 0
        assert run_cli(capsys, *run, "--config", str(config)) == want

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


# ------------------------------------------------------------ no run flag goes unread

#: the run builder's refusals of a flag that a run leaves unread
OWN_INSTANTS = "a discrete network uses its own instants; give no grid"
PARTITIONS = "a convergence study's grids are its partitions (--sizes); give no grid"
OWN_SOLVER = "localization bounds choose their own solver; give no --solver or --max-iter"
NOT_INTEGRATED = ("a discrete network is summed, not integrated; "
                  "give no --quad-tol or --quad-max-subdiv")
DIRECT_SOLVE = ("the direct solver takes no tolerance or iteration budget; "
                "give no --tol or --max-iter")
#: a value for each flag that some run refuses
REFUSED_VALUES = {"--grid": "0,0.5,3", "--grid-count": "3", "--quad-tol": "1e-8",
                  "--quad-max-subdiv": "100", "--solver": "direct", "--max-iter": "50"}


def refusal(command, kind, flag):
    """The refusal of ``flag`` in a `command` run on a ``kind`` network, or None if it reads it."""
    if command == "localize" and flag in ("--solver", "--max-iter"):
        return OWN_SOLVER
    if command == "converge" and flag in ("--grid", "--grid-count"):
        return PARTITIONS
    if kind == "discrete" and flag in ("--grid", "--grid-count"):
        return OWN_INSTANTS
    if kind == "discrete" and flag in ("--quad-tol", "--quad-max-subdiv"):
        return NOT_INTEGRATED
    return None


def run_flag_cases():
    """(command, network kind, flag) for every option of the run commands, as the parser
    declares them; converge runs on the preset only, as it takes no discrete network."""
    commands = next(action for action in cli._build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    for command, kinds in (("compute", ("preset", "discrete")), ("converge", ("preset",)),
                           ("localize", ("preset", "discrete"))):
        for action in commands[command]._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flag = max(action.option_strings, key=len)
            for kind in kinds:
                yield pytest.param(command, kind, flag, id=f"{command}-{kind}{flag}")


def instants_of(out):
    return sorted({row[0] for row in csv_rows(out)[1]}, key=float)


def changes_bytes(*argv):
    def check(run, ctx):
        base, changed = run(), run(*argv)
        assert base[0] == changed[0] == 0, changed[2]
        assert changed[1] != base[1]
    return check


def check_source(run, ctx):
    # the run ranks the network named, and without one there is no run
    assert run(source=[]) == (1, "", "error: no network source configured\n")
    preset = run(source=["--preset", "paper-synthetic"])
    assert preset[0] == 0
    assert run(source=["--network", ctx.discrete]) != preset


def check_personalization(run, ctx):
    if ctx.command == "localize" and ctx.kind == "preset":
        # no row of the preset dangles, so the bounds hold for every personalization;
        # the setting is still built and checked
        table = ctx.tmp_path / "v.txt"
        table.write_text("abc\n")
        code, _, err = run("--personalization", f"file:{table}")
        assert code == 1 and "not a table of numbers" in err
    else:
        changes_bytes("--personalization", "input")(run, ctx)


def refuses_under_direct(run, ctx, flag, value):
    """An explicit --solver direct, which reads neither --tol nor --max-iter, refuses them."""
    if ctx.command != "localize":
        assert run("--solver", "direct", flag, value) == (1, "", f"error: {DIRECT_SOLVE}\n")


def check_solver(run, ctx):
    # the direct solve of these small networks reads no iteration budget, and refuses it
    # when named; power iteration reads it
    assert run("--max-iter", "1")[0] == 0
    refuses_under_direct(run, ctx, "--max-iter", "1")
    assert run("--solver", "power")[0] == 0
    code, out, err = run("--solver", "power", "--max-iter", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: power iteration did not reach 1e-12 within 1 iterations")


def check_tol(run, ctx):
    if ctx.command == "localize":
        # the Neumann series, which bounds a network of n > 2000, stops at tol
        n = 2001
        big = ctx.tmp_path / "big.net"
        big.write_text(f"nodes {n}\ninstant 0.0\n"
                       + "".join(f"{i + 1} {(i + 1) % n + 1} 1.0\n" for i in range(n))
                       + "".join(f"{i + 1} {7 * i % n + 1} 0.5\n" for i in range(0, n, 3)))
        runs = [run("--nodes", "1", *tol, source=["--network", str(big)])
                for tol in ([], ["--tol", "1e-2"])]
    else:   # power iteration stops at tol
        runs = [run("--solver", "power", *tol) for tol in ([], ["--tol", "1e-3"])]
        refuses_under_direct(run, ctx, "--tol", "1e-3")
    assert runs[0][0] == runs[1][0] == 0
    assert runs[0][1] != runs[1][1]


def check_threads(run, ctx):
    # the thread count reaches the solver, and the bytes stay the same
    seen = []
    for module, name in ((tr.pagerank, "trajectory_discrete"),
                         (tr.pagerank, "trajectory_continuous"),
                         (tr.localization, "bounds_trajectory")):
        solve = getattr(module, name)
        ctx.monkeypatch.setattr(module, name, lambda *args, solve=solve, **kwargs:
                                seen.append(kwargs["threads"]) or solve(*args, **kwargs))
    ctx.monkeypatch.delenv("TEMPORANK_THREADS", raising=False)
    base = run()
    assert base[0] == 0
    assert set(seen) == {1}
    assert run("--threads", "2") == base
    assert set(seen) == {1, 2}


def check_quad_tol(run, ctx):
    code, out, err = run("--quad-tol", "1e-300")
    assert (code, out) == (1, "")
    assert err.startswith("error: quadrature did not converge within 65536 subdivisions")


def check_quad_max_subdiv(run, ctx):
    small = [] if ctx.command == "converge" else ["--grid-count", "3"]
    assert run("--quad-tol", "1e-16", *small)[0] == 0
    code, out, err = run("--quad-tol", "1e-16", "--quad-max-subdiv", "0", *small)
    assert (code, out) == (1, "")
    assert err.startswith("error: quadrature did not converge within 0 subdivisions")


def check_grid_count(run, ctx):
    code, out, _ = run("--grid-count", "3")
    assert code == 0
    assert instants_of(out) == ["0.0", "0.5", "1.0"]


def check_grid(run, ctx):
    code, out, _ = run("--grid", "0,0.25,3")
    assert code == 0
    assert instants_of(out) == ["0.0", "0.25", "0.5"]


def check_config(run, ctx):
    config = ctx.tmp_path / "run.cfg"
    config.write_text("[kernel]\nrate = 3\n")
    configured = run("--config", str(config))
    assert configured[0] == 0
    assert configured == run("--rate", "3") != run()


def check_dump_config(run, ctx):
    dumped = ctx.tmp_path / "dumped.cfg"
    first = run("--rate", "3", "--dump-config", str(dumped))
    assert first[0] == 0
    assert run("--config", str(dumped), source=[]) == first


def check_format(run, ctx):
    code, out, _ = run("--format", "json")
    assert code == 0
    assert isinstance(json.loads(out), list)
    assert not run()[1].startswith("[")


def check_output(run, ctx):
    target = ctx.tmp_path / "table.out"
    code, out, err = run("--output", str(target))
    assert (code, out, err) == (0, "", run()[2])
    assert target.read_text() == run()[1]


def check_no_header(run, ctx):
    # the base run is given --no-header; without it the table opens with a timestamp
    code, out, _ = run_cli(ctx.capsys, ctx.command, *ctx.source, *ctx.sizes)
    assert code == 0
    assert out.startswith("# ") and out.split("\n", 1)[1] == run()[1]


def check_sizes(run, ctx):
    code, out, _ = run("--sizes", "3")
    assert code == 0
    assert {row[0] for row in csv_rows(out)[1]} == {"3"}


def check_nodes(run, ctx):
    code, out, _ = run("--nodes", "2")
    assert code == 0
    assert {row[1] for row in csv_rows(out)[1]} == {"2"}


#: every flag a run reads, with a check of its effect
READ = {"--network": check_source, "--preset": check_source,
        "--rate": changes_bytes("--rate", "3"), "--damping": changes_bytes("--damping", "0.5"),
        "--personalization": check_personalization, "--solver": check_solver,
        "--max-iter": check_solver, "--tol": check_tol, "--threads": check_threads,
        "--quad-tol": check_quad_tol, "--quad-max-subdiv": check_quad_max_subdiv,
        "--grid-count": check_grid_count, "--grid": check_grid, "--config": check_config,
        "--dump-config": check_dump_config, "--format": check_format,
        "--output": check_output, "--no-header": check_no_header, "--sizes": check_sizes,
        "--nodes": check_nodes}


@pytest.mark.parametrize("command, kind, flag", run_flag_cases())
def test_no_run_flag_is_silently_ignored(capsys, monkeypatch, tmp_path, command, kind, flag):
    # each flag is refused by the run builder's table, or read with an effect seen here;
    # a flag that is neither fails, so that no new flag goes unread unnoticed
    discrete = tmp_path / "three.net"
    discrete.write_text(THREE_NODE)   # node 3 dangles
    source = ["--preset", "paper-synthetic"] if kind == "preset" else ["--network", str(discrete)]
    sizes = ["--sizes", "3,5"] if command == "converge" else []
    ctx = SimpleNamespace(command=command, kind=kind, source=source, sizes=sizes,
                          discrete=str(discrete), tmp_path=tmp_path, monkeypatch=monkeypatch,
                          capsys=capsys)

    def run(*argv, source=source):
        return run_cli(capsys, command, *source, *sizes, "--no-header", *argv)

    refused = refusal(command, kind, flag)
    if refused is not None:
        assert run(flag, REFUSED_VALUES[flag]) == (1, "", f"error: {refused}\n")
    elif flag in READ:
        READ[flag](run, ctx)
    else:
        pytest.fail(f"{command} {flag} on a {kind} network is neither refused nor read")


def test_unread_settings_in_a_config_still_run(capsys, tmp_path):
    # --dump-config writes every key, so a config's keys are read where a run reads them
    # and left alone elsewhere, unlike the flags
    network = tmp_path / "three.net"
    network.write_text(THREE_NODE)
    config = tmp_path / "all.cfg"
    config.write_text(f"[network]\nfile = {network}\n[solver]\nmethod = power\nmax-iter = 500\n"
                      "[quadrature]\ntol = 1e-8\nmax-subdiv = 100\n[grid]\ncount = 3\n")
    for command in ("compute", "localize"):
        assert run_cli(capsys, command, "--config", str(config))[0] == 0


def test_direct_solver_of_a_config_refuses_tol_and_max_iter_flags(capsys, tmp_path):
    # the resolved solver decides: a config's direct solve refuses the flags, while its own
    # tol and max-iter keys, and the flags under auto, still run
    network = tmp_path / "three.net"
    network.write_text(THREE_NODE)
    config = tmp_path / "direct.cfg"
    config.write_text(f"[network]\nfile = {network}\n[solver]\nmethod = direct\ntol = 0.5\n"
                      "max-iter = 1\n")
    base = run_cli(capsys, "compute", "--config", str(config), "--no-header")
    assert base[0] == 0
    for flag, value in (("--tol", "1e-3"), ("--max-iter", "7")):
        assert run_cli(capsys, "compute", "--config", str(config), "--no-header",
                       flag, value) == (1, "", f"error: {DIRECT_SOLVE}\n")
        assert run_cli(capsys, "compute", "--config", str(config), "--no-header",
                       "--solver", "auto", flag, value) == base
    assert run_cli(capsys, "compute", "--config", str(config), "--no-header",
                   "--solver", "power", "--max-iter", "500", "--tol", "1e-3")[0] == 0


def test_dump_config_of_a_discrete_run_runs_again(capsys, tmp_path):
    network = tmp_path / "three.net"
    network.write_text(THREE_NODE)
    dumped = tmp_path / "dumped.cfg"
    first = run_cli(capsys, "compute", "--network", str(network), "--no-header",
                    "--dump-config", str(dumped))
    text = dumped.read_text()
    assert "[quadrature]\n" in text and "[grid]\ncount = 101\n" in text
    assert first[0] == 0
    assert run_cli(capsys, "compute", "--config", str(dumped)) == first


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

    def test_output_settings_come_from_its_own_flags(self, capsys, tmp_path, config_pair):
        # each config's [output] section is left unread: two configs could disagree
        target = tmp_path / "x.json"
        for path in config_pair:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(f"\n[output]\nformat = json\npath = {target}\nheader = no\n")
        code, out, _ = run_cli(capsys, "compare", *config_pair)
        assert code == 0
        assert out.startswith("# ") and out.split("\n")[1] == "instant,tau,pair_label"
        assert not target.exists()

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

    @pytest.mark.parametrize("count", [2 ** 63, 10 ** 20])
    def test_count_beyond_an_array_is_one_error_line(self, capsys, tmp_path, count):
        # 2^63 points made an empty grid, 10^20 a raw ValueError
        events = self.events_file(tmp_path, "1 2 +1 0\n")
        assert run_cli(capsys, "ingest", "--events", events, "--grid", f"0,1,{count}") == (
            1, "", f"error: grid 0.0,1.0,{count}: more points than an array can hold\n")

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

    def test_missing_initial_file(self, capsys, tmp_path):
        events = self.events_file(tmp_path, "1 2 +1 0\n")
        path = tmp_path / "void.txt"
        assert run_cli(capsys, "ingest", "--events", events, "--grid", "0,1,2",
                       "--initial", str(path)) == (
            2, "", f"error: network source not found: {path}\n")

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

    def test_node_count_beyond_int64_reported(self, capsys, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("nodes 100000000000000000000\ninstant 0\n")
        assert run_cli(capsys, "validate", str(path)) == (
            1, "", "line 1: node count must be below 2**31, got 100000000000000000000\n")

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

    @pytest.mark.parametrize("expression", ["+".join(["t"] * 1000), "+".join(["t"] * 3000),
                                            "-" * 100000 + "t"], ids=["sum-1000", "sum-3000",
                                                                      "minus-100000"])
    def test_expression_nested_too_deeply_reported(self, capsys, tmp_path, expression):
        # Python's parser limits ended as a RecursionError or a MemoryError traceback
        path = tmp_path / "net.txt"
        path.write_text(f"nodes 2\ninterval 0 1\nedge 2 1 1\nedge 1 2 {expression}\n")
        error = (f"line 4: bad edge expression: expression of {len(expression)} characters "
                 "is nested too deeply to parse\n")
        assert run_cli(capsys, "validate", str(path)) == (1, "", error)
        assert run_cli(capsys, "compute", "--network", str(path)) == (1, "", "error: " + error)

    def test_module_entry_point(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(THREE_NODE)
        result = run_module("validate", str(path))
        assert result.returncode == 0
        assert result.stdout == "ok: discrete network, n=3\n"
