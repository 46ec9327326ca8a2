"""Smoke tests of the pipeline benchmark at small input sizes.

    python3 -m pytest perfbench/tests -q

They run ``run.py`` as the benchmark harness does, so they need the
repository's ``src/`` next to ``perfbench/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def run_bench(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.1", "--trace", str(trace), "--size", "small"],
        capture_output=True, text=True, cwd=root, timeout=300, check=False)


def declared(kind: str) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_workload_runs_checks_and_reports(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == declared("per_layer" if trace else "end_to_end")


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        done = run_bench("event-study", 1)
        metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({name: metric["value"] for name, metric in metrics.items()
                       if metric["unit"] in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["ingest.events"] > 0 and counts[0]["localization.columns"] > 0


def _workload(name: str):
    workload = workloads.make_workload(os.path.join(ROOT, ".perfbench_work"), name,
                                       "small", SEED)
    workload.prepare()
    return workload


def _rewrite(path: str, old: str, new: str) -> None:
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    assert old in text
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text.replace(old, new, 1))


@pytest.mark.parametrize("name, output, old, new", [
    ("event-study", "taus.csv", "\n0.0,", "\n0.0,1"),
    ("event-study", "summary.json", '"removes": ', '"removes": 1'),
    ("event-study", "bounds.csv", "\n0.0,1,", "\n0.0,1,1"),
    ("long-horizon", "scores.csv", "\n0.0,1,", "\n0.0,1,1"),
    ("continuous-study", "scores.csv", "\n1.0,5,", "\n1.0,5,1"),
])
def test_a_corrupted_output_trips_the_check(name, output, old, new):
    assert run_bench(name, 0).returncode == 0
    workload = _workload(name)
    assert workload.check() == []
    _rewrite(workload.path(output), old, new)
    assert workload.check() != []


def test_bounds_are_compared_with_a_reference_whose_minimum_is_zero(tmp_path):
    # 1 -> 2 <-> 3: nodes 2 and 3 never reach node 1, so column 1 of X has zeros
    network = tmp_path / "net.txt"
    network.write_text("nodes 3\ninstant 0.0\n1 2 1.0\n2 3 1.0\n3 2 1.0\n")
    blocks = checks.read_network(str(network))[1]
    bounds = tmp_path / "bounds.csv"
    for lo, hi, ok in [("0.0", "0.15", True), ("1e-06", "0.15", False),
                       ("0.0", "0.2", False)]:
        bounds.write_text(f"instant,node,lo,hi\n0.0,1,{lo},{hi}\n")
        assert (checks.bounds(str(bounds), blocks, [1], 0.001, 0.85, 1e-10) == []) is ok


def test_an_unreadable_output_fails_the_check_without_raising():
    assert run_bench("event-study", 0).returncode == 0
    workload = _workload("event-study")
    os.remove(workload.path("taus.csv"))
    problems = workload.check()
    assert len(problems) == 1 and "unreadable" in problems[0]


def test_inputs_are_keyed_by_their_sizes():
    small = workloads.SIZES["small"]["long-horizon"]
    key = inputs.cache_key(small)
    assert inputs.cache_key(dict(small)) == key
    assert inputs.cache_key({**small, "nodes": small["nodes"] + 1}) != key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = run_bench("continuous-study", 0, root=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
