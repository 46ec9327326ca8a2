"""Pipeline benchmark: one workload through the temporank CLI, end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The run

1. makes the workload's inputs from the seed (cached under
   ``.perfbench_work/`` by workload, seed, input sizes and generator
   version; not timed);
2. runs the workload's command sequence once unrecorded (warm-up), then
   back to back, one process at a time, until S seconds of passes have
   passed, checking every pass's outputs;
3. after each of the first five passes, times set-up once, and again at
   the end until it has five samples: a fresh interpreter imports
   temporank and loads the workload's network (set-up time does not
   count towards S);
4. with ``--trace 1``, alternates each untraced pass with a traced one
   (``tracing.py``), and reports the per-layer table instead.

Every child runs with BLAS and OpenMP pinned to one thread, and pinned to
one CPU, taking the CPUs in turn.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit and sample count, the check verdict and the
environment.  A fuller record goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

#: pinned before numpy loads, here and in every child process
PINNED = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(PINNED)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS, make_workload  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5
#: seconds after start at which any running child is killed (runs must end by 180 s)
HARD_LIMIT = 150.0
STARTED = time.perf_counter()
#: the CPUs this run may use.  A child starts on its parent's CPU and stays
#: there, and the CPUs of a shared host differ in speed by up to a quarter,
#: the faster one changing over time, so successive processes alternate
#: over them (see README "Noise").
CPUS = sorted(os.sched_getaffinity(0))

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}


def child_env() -> dict:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("TEMPORANK_")}
    env.update(PINNED, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


def run_process(argv: list[str], stdout: str | None, stderr: str, slot: int) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from its own rusage.

    The process is pinned to CPU number ``slot`` (modulo the CPUs there
    are).  It is killed once the run reaches ``HARD_LIMIT`` seconds, so a
    run always ends in time; a killed process counts as failed.
    """
    os.sched_setaffinity(0, {CPUS[slot % len(CPUS)]})   # inherited by the child
    with open(stdout or os.devnull, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(max(0.0, STARTED + HARD_LIMIT - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def run_pass(workload, traced: bool, index: int, slot: int) -> dict:
    """One pass of the workload's command sequence, then its output checks.

    Command ``number`` runs on CPU slot ``slot + number``.
    """
    walls, cpus, rss, traces, problems = [], [], [], [], []
    for number, (argv, stdout) in enumerate(workload.commands()):
        stderr = workload.path(f"stderr-{number}.txt")
        if traced:
            spec_path = workload.path(f"trace-spec-{number}.json")
            trace_path = workload.path(f"trace-{index}-{number}.json")
            with open(spec_path, "w", encoding="utf-8") as handle:
                json.dump({"argv": argv, "stdout": stdout, "trace": trace_path}, handle)
            result = run_process([sys.executable, os.path.join(HERE, "tracing.py"),
                                  spec_path], None, stderr, slot + number)
        else:
            result = run_process([sys.executable, "-m", "temporank", *argv], stdout, stderr,
                                 slot + number)
        walls.append(result["wall"])
        cpus.append(result["cpu"])
        rss.append(result["rss_mb"])
        if result["code"] != 0:
            with open(stderr, encoding="utf-8") as handle:
                problems.append(f"`{argv[0]}` exited {result['code']}: {handle.read()[-500:]}")
            break
        if traced:
            with open(trace_path, encoding="utf-8") as handle:
                traces.append(json.load(handle))
    if not problems:
        problems = workload.check()
    return {"traced": traced, "wall": sum(walls), "cpu": sum(cpus),
            "rss_mb": max(rss), "commands": walls, "problems": problems,
            "traces": traces}


def time_setup(workload, slot: int) -> float:
    result = run_process([sys.executable, "-c", workload.setup_code()], None,
                         workload.path("stderr-setup.txt"), slot)
    if result["code"] != 0:
        with open(workload.path("stderr-setup.txt"), encoding="utf-8") as handle:
            raise RuntimeError(f"set-up exited {result['code']}: {handle.read()[-500:]}")
    return result["wall"]


def environment() -> dict:
    backend = "unknown"
    try:
        sys.path.insert(0, SRC)
        from temporank import _kernels
        backend = _kernels.BACKEND
    except ImportError:
        backend = "none"
    finally:
        sys.path.remove(SRC)
    head = os.path.join(ROOT, ".git", "HEAD")
    revision = "unknown (not a git checkout)"
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        revision = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(ROOT, ".git", ref[5:])):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                revision = handle.read().strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "kernel_backend": backend, "revision": revision,
            "machine": platform.machine(), "pinned": PINNED}


def measure(workload, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` have passed; set-up is timed after each of the first five.

    One unrecorded, unchecked pass runs first: the first pass of a run is
    the slowest, and it writes the network that event-study's set-up
    loads.  Set-up samples are spread over most of the run, so the pass
    and set-up medians see the same stretch of host speed.  Every
    recorded pass is checked.
    """
    workload.prepare()
    for number, (argv, stdout) in enumerate(workload.commands()):
        run_process([sys.executable, "-m", "temporank", *argv], stdout,
                    workload.path("stderr-warm.txt"), number)
    setup, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        rounds = len(passes) // (2 if trace else 1)
        passes.append(run_pass(workload, False, len(passes), rounds))
        if trace:
            # same CPUs as the untraced pass, so trace.overhead_s pairs like with like
            passes.append(run_pass(workload, True, len(passes), rounds))
        if len(setup) < SETUP_REPEATS:
            setup.append(time_setup(workload, rounds))
            deadline += setup[-1]
    while len(setup) < SETUP_REPEATS:
        setup.append(time_setup(workload, len(setup)))
    return {"setup": setup, "passes": passes}


def end_to_end(record: dict) -> dict:
    plain = [p for p in record["passes"] if not p["traced"]]
    failed = sum(1 for p in record["passes"] if p["problems"])
    return {
        "wall_s": (statistics.median(p["wall"] for p in plain), len(plain)),
        "cpu_s": (statistics.median(p["cpu"] for p in plain), len(plain)),
        "setup_s": (statistics.median(record["setup"]), len(record["setup"])),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in plain), len(plain)),
        "success_rate": (1.0 - failed / len(record["passes"]), len(record["passes"])),
    }


def per_layer(record: dict) -> tuple[dict, list[str]]:
    """Median per-layer times over the traced passes; counts must repeat exactly.

    ``trace.overhead_s`` is the median over traced passes of the traced
    wall minus the wall of the untraced pass run just before it, so slow
    drift of the host cancels out of each difference.
    """
    passes = record["passes"]
    pairs = [(before, traced) for before, traced in zip(passes, passes[1:])
             if traced["traced"] and not before["traced"]
             and not traced["problems"] and not before["problems"]]
    tables = [tracing.layer_metrics(traced["traces"], traced["wall"]) for _, traced in pairs]
    if not tables:
        return {}, ["no traced pass completed"]
    problems = [f"traced pass {k + 1} counted {counts}, pass 1 counted {tables[0][1]}"
                for k, (_, counts) in enumerate(tables) if counts != tables[0][1]]
    metrics = {name: (statistics.median(times[name] for times, _ in tables), len(tables))
               for name in tables[0][0]}
    metrics.update({name: (value, len(tables)) for name, value in tables[0][1].items()})
    metrics["trace.overhead_s"] = (statistics.median(
        traced["wall"] - before["wall"] for before, traced in pairs), len(pairs))
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="bench",
                        help="input sizes; `small` is for the smoke tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "temporank", "__init__.py")):
        print(f"error: no temporank sources under {SRC}", file=sys.stderr)
        return 2
    workload = make_workload(WORK, args.workload, args.size, args.seed)
    try:
        record = measure(workload, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    metrics = end_to_end(record)
    problems = [problem for p in record["passes"] for problem in p["problems"]]
    layers: dict = {}
    if args.trace:
        layers, count_problems = per_layer(record)
        problems += count_problems
    env = environment()
    for name, (value, samples) in metrics.items():
        print(f"{args.workload} {name} = {value!r} {END_TO_END_UNITS[name]} "
              f"({samples} samples)")
    for name, (value, samples) in layers.items():
        print(f"{args.workload} {name} = {value!r} {tracing.UNITS[name]} "
              f"(traced, {samples} passes)")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    print(f"checks: {'FAIL' if problems else 'PASS'} over {len(record['passes'])} passes")
    print("environment: " + json.dumps(env, sort_keys=True))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{args.workload}-{args.size}-{args.seed}-"
                           f"trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "seconds": args.seconds, "trace": args.trace, "environment": env,
                   "end_to_end": metrics, "per_layer": layers or None,
                   "setup": record["setup"], "problems": problems,
                   "passes": [{key: p[key] for key in ("traced", "wall", "cpu", "rss_mb",
                                                       "commands", "problems")}
                              for p in record["passes"]]}, handle, indent=1)
    reported, units = (layers, tracing.UNITS) if args.trace else (metrics, END_TO_END_UNITS)
    print(json.dumps({
        "correct": not problems, "attempted": len(record["passes"]),
        "failed": sum(1 for p in record["passes"] if p["problems"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
