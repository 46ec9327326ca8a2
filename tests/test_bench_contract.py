"""The traced benchmark's hooks still fit the package.

``perfbench/tracing.py`` wraps package functions by name and reads their
results from outside.  A refactor that renames a function or changes a
result it reads would break traced runs without failing a package test,
so these tests load the tracer by path and check it against the package.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from temporank import (ConstantDamping, ExponentialDecay, bounds_trajectory, build_snapshots,
                       parse_events)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
