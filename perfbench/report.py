"""Run every workload and print one table: each metric, its unit, its samples.

    python3 perfbench/report.py [--seed N] [--seconds S] [--traced]
                                [--record perfbench/results.json --label TEXT]

Each workload runs through ``run.py`` exactly as a single benchmark run
does.  The table shows every end-to-end metric plus ``fail_rate``
(failed passes over attempted passes) and the check verdict; with
``--traced`` a second, traced run per workload adds the per-layer table.
``--record`` appends all of it, with the environment, to a results file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run(workload: str, args, trace: int) -> dict:
    """One run.py run; returns its full record, or exits if it failed to run."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    path = os.path.join(os.path.dirname(HERE), ".perfbench_work", "results",
                        f"{workload}-bench-{args.seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        record = json.load(handle)
    record["summary"] = json.loads(done.stdout.strip().splitlines()[-1])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--traced", action="store_true",
                        help="also make a traced run per workload")
    parser.add_argument("--record", metavar="FILE",
                        help="append this report to a JSON results file")
    parser.add_argument("--label", default="", help="what the recorded entry measures")
    args = parser.parse_args(argv)

    entry = {"label": args.label, "seed": args.seed, "seconds": args.seconds,
             "workloads": {}}
    verdict = True
    print(f"{'workload':<18} {'metric':<32} {'value':>14} {'unit':<6} samples")
    for name in WORKLOADS:
        plain = run(name, args, 0)
        summary = plain["summary"]
        rows = dict(plain["end_to_end"])
        rows["fail_rate"] = (summary["failed"] / summary["attempted"], summary["attempted"])
        for metric, (value, samples) in rows.items():
            unit = summary["metrics"].get(metric, {"unit": "ratio"})["unit"]
            print(f"{name:<18} {metric:<32} {value:>14.6g} {unit:<6} {samples}")
        result = {"end_to_end": rows, "problems": plain["problems"]}
        verdict = verdict and summary["correct"]
        if args.traced:
            traced = run(name, args, 1)
            verdict = verdict and traced["summary"]["correct"]
            result["per_layer"] = traced["per_layer"]
            result["problems"] += traced["problems"]
            for metric, (value, samples) in traced["per_layer"].items():
                unit = traced["summary"]["metrics"][metric]["unit"]
                print(f"{name:<18} {metric:<32} {value:>14.6g} {unit:<6} {samples} traced")
        print(f"{name:<18} checks: {'PASS' if not result['problems'] else 'FAIL'}")
        entry["workloads"][name] = result
        entry["environment"] = plain["environment"]

    if args.record:
        history = []
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as handle:
                history = json.load(handle)
        history.append(entry)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(history, handle, indent=1)
            handle.write("\n")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
