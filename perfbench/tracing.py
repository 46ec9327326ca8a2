"""Traced runs: spans around each layer's public functions, from outside the package.

Run as a script, this file executes ONE temporank CLI command in-process
with tracing on::

    python3 perfbench/tracing.py SPEC.json

``SPEC.json`` holds ``{"argv": [...], "stdout": path or null, "trace": path}``.
The script wraps the public functions listed in ``PLAN`` (rebinding every
``from x import y`` copy inside the package), calls ``temporank.cli.main``,
keeps spans (name, start, end, parent id) and counters in memory and
writes them to ``trace`` as JSON at exit.  Nothing under ``src/`` changes.

Imported as a module, it only offers :func:`layer_metrics`, which turns
the traces of one command sequence into the per-layer table.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager, redirect_stdout


class Tracer:
    """In-memory spans and counters of one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    @contextmanager
    def span(self, name: str):
        record = {"id": len(self.spans),
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(tracer, result, args, kwargs)`` after it."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, result, args, kwargs)
            return result
        return traced


def _path_bytes(target) -> int:
    return os.path.getsize(target) if isinstance(target, (str, os.PathLike)) else 0


def _count_load(tracer, result, args, kwargs):
    tracer.add("netfile.load_calls", 1)
    tracer.add("netfile.bytes", _path_bytes(args[0] if args else kwargs["source"]))


def _count_save(tracer, result, args, kwargs):
    tracer.add("netfile.bytes", _path_bytes(args[1] if len(args) > 1 else kwargs["target"]))


def _count_terms(tracer, result, args, kwargs):
    tracer.add("accumulate.terms", args[2] if len(args) > 2 else kwargs["k"])


def _matvec_bytes(op) -> int:
    """Bytes one G^T x moves at the minimum: the CSR arrays once, x read, y written.

    Computed from array sizes, not measured; 0 if the operator no longer
    exposes its snapshot matrix.
    """
    matrix = getattr(getattr(op, "snapshot", None), "matrix", None)
    if matrix is None:
        return 0
    return (matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
            + 2 * 8 * matrix.shape[0])


def _count_power(tracer, result, args, kwargs):
    op = args[0] if args else kwargs["op"]
    tracer.add("pagerank.iterations", result[1])
    tracer.add("pagerank.matvec_bytes", _matvec_bytes(op) * result[1])


def _counter(name: str):
    return lambda tracer, result, args, kwargs: tracer.add(name, 1)


#: (module, function, span name, counter) for every wrapped public function
PLAN = [
    ("netfile", "load_network", "netfile.load_network", _count_load),
    ("netfile", "save_network", "netfile.save_network", _count_save),
    ("ingest", "parse_events", "ingest.parse_events",
     lambda tracer, result, args, kwargs: tracer.add("ingest.events", len(result.events))),
    ("ingest", "build_snapshots", "ingest.build_snapshots", None),
    ("ingest", "summarize", "ingest.summarize", None),
    ("accumulate", "accumulate_discrete", "accumulate.accumulate_discrete", _count_terms),
    ("accumulate", "row_normalize", "accumulate.row_normalize", None),
    ("accumulate", "accumulate_continuous", "accumulate.accumulate_continuous", None),
    ("accumulate", "truncate", "accumulate.truncate", None),
    ("pagerank", "trajectory_discrete", "pagerank.trajectory_discrete", None),
    ("pagerank", "trajectory_continuous", "pagerank.trajectory_continuous", None),
    ("pagerank", "pagerank_power", "pagerank.pagerank_power", _count_power),
    ("pagerank", "pagerank_direct", "pagerank.pagerank_direct",
     _counter("pagerank.direct_solves")),
    ("ranking", "compare_trajectories", "ranking.compare_trajectories", None),
    ("ranking", "kendall_tau", "ranking.kendall_tau", _counter("ranking.tau_calls")),
    ("localization", "bounds_trajectory", "localization.bounds_trajectory",
     lambda tracer, result, args, kwargs: tracer.add("localization.columns", result.lo.size)),
]


def _rebind(original, replacement) -> None:
    """Point every temporank module name bound to ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "temporank":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function in PLAN, GoogleOperator construction and the quadrature."""
    importlib.import_module("temporank")       # loads every module the plan names
    for module_name, attr, name, count in PLAN:
        module = importlib.import_module(f"temporank.{module_name}")
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, count))

    operator = importlib.import_module("temporank.pagerank").GoogleOperator
    operator.__init__ = tracer.wrap("pagerank.GoogleOperator", operator.__init__)

    quadrature = importlib.import_module("temporank.quadrature")
    original = quadrature.adaptive_simpson

    @functools.wraps(original)
    def adaptive_simpson(fn, *args, **kwargs):
        evals = 0

        def integrand(s):
            nonlocal evals
            evals += 1
            return fn(s)

        try:
            with tracer.span("quadrature.adaptive_simpson"):
                return original(integrand, *args, **kwargs)
        finally:
            tracer.add("quadrature.calls", 1)
            tracer.add("quadrature.evals", evals)

    _rebind(original, adaptive_simpson)


def run_command(spec: dict) -> int:
    tracer = Tracer()
    install(tracer)
    from temporank import cli

    argv, stdout = spec["argv"], spec["stdout"]
    with open(stdout or os.devnull, "w", encoding="utf-8") as handle, \
            redirect_stdout(handle):
        code = tracer.wrap("cli.main", cli.main)(argv)
    output = argv[argv.index("--output") + 1] if "--output" in argv else None
    tracer.add("cli.output_bytes", _path_bytes(output) + _path_bytes(stdout))
    with open(spec["trace"], "w", encoding="utf-8") as handle:
        json.dump({"argv": argv, "code": code, "spans": tracer.spans,
                   "counters": tracer.counters}, handle)
    return code


# ------------------------------------------------------- per-layer table

#: time metrics: the summed self time of these spans
SELF_TIMES = {
    "cli.self_s": ["cli.main"],
    "netfile.load_s": ["netfile.load_network"],
    "netfile.save_s": ["netfile.save_network"],
    "ingest.parse_s": ["ingest.parse_events"],
    "ingest.replay_s": ["ingest.build_snapshots"],
    "ingest.summarize_s": ["ingest.summarize"],
    "accumulate.discrete_s": ["accumulate.accumulate_discrete"],
    "accumulate.normalize_s": ["accumulate.row_normalize"],
    "accumulate.continuous_s": ["accumulate.accumulate_continuous"],
    "accumulate.truncate_s": ["accumulate.truncate"],
    "quadrature.s": ["quadrature.adaptive_simpson"],
    "pagerank.trajectory_self_s": ["pagerank.trajectory_discrete",
                                   "pagerank.trajectory_continuous"],
    "pagerank.operator_s": ["pagerank.GoogleOperator"],
    "pagerank.power_s": ["pagerank.pagerank_power"],
    "pagerank.direct_s": ["pagerank.pagerank_direct"],
    "ranking.tau_s": ["ranking.kendall_tau", "ranking.compare_trajectories"],
    "localization.bounds_s": ["localization.bounds_trajectory"],
}

#: counters reported as they are
COUNTS = ["ingest.events", "netfile.load_calls", "netfile.bytes", "accumulate.terms",
          "quadrature.calls", "quadrature.evals", "pagerank.iterations",
          "pagerank.direct_solves", "ranking.tau_calls", "localization.columns",
          "cli.output_bytes"]

UNITS = {name: "s" for name in SELF_TIMES}
UNITS.update({name: "count" for name in COUNTS})
UNITS.update({"netfile.bytes": "B", "cli.output_bytes": "B",
              "ingest.events_per_s": "1/s", "pagerank.matvec_s": "s",
              "pagerank.matvec_gbps_computed": "GB/s", "cli.startup_s": "s",
              "trace.wall_s": "s", "trace.overhead_s": "s"})


def self_times(spans: list[dict]) -> dict[str, float]:
    """Span duration minus the durations of its direct children, summed by name.

    ``spans`` come from one process: ids are unique only within it.
    """
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    totals: dict[str, float] = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0.0) + own[span["id"]]
    return totals


def layer_metrics(traces: list[dict], wall_s: float) -> tuple[dict, dict]:
    """Per-layer times and counts of one traced sequence.

    ``traces`` are the documents the sequence's commands wrote, one per
    process, and ``wall_s`` the summed wall time of those processes.
    Returns (times, counts); trace.overhead_s is left to the caller, which
    knows the untraced wall time.
    """
    owned: dict[str, float] = {}
    counts = {name: 0 for name in COUNTS + ["pagerank.matvec_bytes"]}
    main_s = 0.0
    for trace in traces:
        for name, value in self_times(trace["spans"]).items():
            owned[name] = owned.get(name, 0.0) + value
        for name, value in trace["counters"].items():
            counts[name] = counts.get(name, 0) + value
        main_s += sum(span["end"] - span["start"] for span in trace["spans"]
                      if span["name"] == "cli.main")
    times = {metric: sum(owned.get(name, 0.0) for name in names)
             for metric, names in SELF_TIMES.items()}
    times["cli.startup_s"] = wall_s - main_s
    times["trace.wall_s"] = wall_s
    ingest_s = times["ingest.parse_s"] + times["ingest.replay_s"]
    times["ingest.events_per_s"] = counts["ingest.events"] / ingest_s if ingest_s else 0.0
    power_s = times["pagerank.power_s"]
    iterations = counts["pagerank.iterations"]
    matvec_bytes = counts.pop("pagerank.matvec_bytes")
    times["pagerank.matvec_s"] = power_s / iterations if iterations else 0.0
    times["pagerank.matvec_gbps_computed"] = matvec_bytes / power_s / 1e9 if power_s else 0.0
    return times, counts


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as spec_file:
        sys.exit(run_command(json.load(spec_file)))
