"""The benchmark's hooks and output checks still fit the package.

``perfbench/tracing.py`` wraps package functions by name and reads their
results from outside.  A refactor that renames a function or changes a
result it reads would break traced runs without failing a package test,
so these tests load the tracer by path and check it against the package.
``perfbench/checks.py`` holds the benchmark's independent output checks;
an output they refuse would fail benchmark passes, so the tests run them
on the package's output as well.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest
from scipy import sparse

from temporank import (ConstantDamping, DiscreteTemporalNetwork, ExponentialDecay,
                       bounds_trajectory, build_snapshots, parse_events, save_network)
from temporank import cli
from temporank.pagerank import DIRECT_SOLVE_MAX_N

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.fixture(scope="module")
def checks():
    return load("checks")


def counter_of(tracing, function: str):
    (count,) = [count for _, name, _, count in tracing.PLAN if name == function]
    return count


def test_every_traced_function_exists(tracing):
    for module, function, _, _ in tracing.PLAN:
        assert callable(getattr(importlib.import_module(f"temporank.{module}"), function)), \
            f"temporank.{module}.{function}"


def test_parse_events_counter_reads_a_real_result(tracing):
    tracer = tracing.Tracer()
    parsed = parse_events(["% stream", "1 2 +1 0", "2 1 +1 5", "1 2 -1 9"])
    counter_of(tracing, "parse_events")(tracer, parsed, (), {})
    assert tracer.counters == {"ingest.events": 3}


def test_localization_counter_reads_a_real_result(tracing):
    tracer = tracing.Tracer()
    events = parse_events(["1 2 +1 0", "2 3 +1 0", "3 1 +1 0", "1 3 +1 1"]).events
    network, _ = build_snapshots(events, [0.0, 1.0])
    bounds = bounds_trajectory(network, ExponentialDecay(0.5), ConstantDamping(0.85),
                               nodes=[0, 2])
    counter_of(tracing, "bounds_trajectory")(tracer, bounds, (), {})
    assert tracer.counters == {"localization.columns": int(np.asarray(bounds.lo).size)}
    assert tracer.counters["localization.columns"] == 4


def test_neumann_bounds_pass_the_benchmark_localize_check(checks, tmp_path):
    # n above the direct limit takes the Neumann series, as event-study's localize does;
    # the check wants lo and hi within 2 * tol of its own GMRES solve
    rng = np.random.default_rng(5)
    n, degree = DIRECT_SOLVE_MAX_N + 100, 3
    rows = np.repeat(np.arange(n), degree)
    snapshots = []
    for _ in range(3):
        weights = rng.integers(1, 4, size=rows.size).astype(float)
        weights[rows < n // 20] = 0.0                   # dangling rows
        snapshots.append(sparse.csr_array(
            (weights, (rows, rng.integers(0, n, size=rows.size))), shape=(n, n)))
    network = tmp_path / "net.txt"
    save_network(DiscreteTemporalNetwork(n, [0.0, 1.0, 2.0], tuple(snapshots)), network)
    bounds = tmp_path / "bounds.csv"
    assert cli.main(["localize", "--network", str(network), "--nodes", "1,2,500",
                     "--rate", "0.5", "--tol", "1e-10", "--threads", "1", "--no-header",
                     "--output", str(bounds)]) == 0
    _, blocks = checks.read_network(str(network))
    assert checks.bounds(str(bounds), blocks, [1, 2, 500], 0.5, 0.85, 1e-10) == []


def test_direct_bounds_pass_the_benchmark_localize_check(checks, tmp_path):
    # the same check on n <= DIRECT_SOLVE_MAX_N, where localize stacks the dense
    # systems of its instants; dangling rows take the uniform distribution
    rng = np.random.default_rng(6)
    n, degree = 60, 3
    rows = np.repeat(np.arange(n), degree)
    snapshots = []
    for _ in range(3):
        weights = rng.integers(1, 4, size=rows.size).astype(float)
        weights[rows < n // 20] = 0.0                   # dangling rows
        snapshots.append(sparse.csr_array(
            (weights, (rows, rng.integers(0, n, size=rows.size))), shape=(n, n)))
    network = tmp_path / "net.txt"
    save_network(DiscreteTemporalNetwork(n, [0.0, 1.0, 2.0], tuple(snapshots)), network)
    bounds = tmp_path / "bounds.csv"
    assert cli.main(["localize", "--network", str(network), "--nodes", "all",
                     "--rate", "0.5", "--tol", "1e-10", "--threads", "1", "--no-header",
                     "--output", str(bounds)]) == 0
    _, blocks = checks.read_network(str(network))
    assert checks.bounds(str(bounds), blocks, list(range(1, n + 1)), 0.5, 0.85, 1e-10) == []


def test_continuous_outputs_pass_the_benchmark_checks(checks, tmp_path):
    # continuous-study's commands at a small size: the discretization study
    # and a trajectory whose sampled instants the check solves on its own
    converge, scores = tmp_path / "converge.csv", tmp_path / "scores.csv"
    common = ["--preset", "paper-synthetic", "--threads", "1", "--no-header"]
    assert cli.main(["converge", *common, "--sizes", "5,9", "--output", str(converge)]) == 0
    assert cli.main(["compute", *common, "--grid-count", "21", "--output", str(scores)]) == 0
    assert checks.convergence(str(converge), [5, 9]) == []
    assert checks.synthetic_trajectory(str(scores), 21, 1.0, 0.85, [0, 7, 20]) == []
