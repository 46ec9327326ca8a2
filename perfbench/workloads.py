"""The benchmark's workloads: inputs, CLI command sequences and output checks.

Each workload is a closed loop: one client runs its commands back to
back, one process at a time.  ``SIZES["bench"]`` is what the benchmark
measures; ``SIZES["small"]`` keeps the smoke tests fast.
"""

from __future__ import annotations

import os

import numpy as np

import checks
import inputs

#: flags every command gets: one solver thread, no timestamp line in CSV output
COMMON = ["--threads", "1", "--no-header"]

SIZES = {
    "bench": {
        "event-study": {"nodes": 4000, "events": 30000, "days": 1000,
                        "grid_step_days": 50},
        "long-horizon": {"nodes": 2500, "out_degree": 3, "instants": 80,
                         "churn": 0.1},
        "continuous-study": {"sizes": [5, 9, 101, 151], "grid_count": 1001},
    },
    "small": {
        "event-study": {"nodes": 2600, "events": 4000, "days": 100,
                        "grid_step_days": 50},
        "long-horizon": {"nodes": 60, "out_degree": 3, "instants": 6,
                         "churn": 0.1},
        "continuous-study": {"sizes": [5, 9], "grid_count": 21},
    },
}


class Workload:
    """One workload at one size and seed, with its files under ``work``.

    ``prepare`` makes the inputs (cached), ``commands`` gives the CLI
    argument lists of one pass, and ``check`` returns the problems found
    in that pass's outputs; an output that cannot be read or parsed is
    one of them.  ``setup_code`` is what a fresh interpreter
    runs to time set-up: import temporank and load the network once.
    """

    name = ""

    def __init__(self, size: dict, seed: int, work: str):
        self.size = size
        self.seed = seed
        self.work = work
        self.inputs = os.path.join(work, "inputs")
        self.out = os.path.join(work, "out")
        self.tallies: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    def prepare(self) -> None:
        os.makedirs(self.out, exist_ok=True)

    def setup_code(self) -> str:
        raise NotImplementedError

    def commands(self) -> list[tuple[list[str], str | None]]:
        """(CLI arguments, file for its standard output or None) per command."""
        raise NotImplementedError

    def check(self) -> list[str]:
        try:
            return self._check()
        except (OSError, ValueError, KeyError, IndexError) as err:
            return [f"outputs unreadable: {err!r}"]

    def _check(self) -> list[str]:
        raise NotImplementedError


class EventStudy(Workload):
    """Ingest an itwiki-shaped stream, compare two personalizations, bound two nodes.

    The only workload that runs ingest, netfile writes, tau and the
    Neumann localization path (n > 2000).  Accumulation is light.
    """

    name = "event-study"
    nodes = [1, 2]
    rate = "0.001"
    tol = 1e-10

    def prepare(self) -> None:
        super().prepare()
        size = self.size
        self.tallies = inputs.cached(self.inputs, lambda d: inputs.event_stream(
            d, self.seed, nodes=size["nodes"], events=size["events"],
            days=size["days"], grid_step_days=size["grid_step_days"]))
        for name, kind in (("uniform", "uniform"), ("input", "input")):
            with open(self.path(f"{name}.cfg"), "w", encoding="utf-8") as handle:
                handle.write(
                    f"[network]\nfile = {self.path('net.txt')}\n"
                    f"[kernel]\nrate = {self.rate}\n"
                    f"[personalization]\nkind = {kind}\n"
                    "[solver]\nmethod = power\ntol = 1e-10\nthreads = 1\n")

    def _grid(self) -> str:
        size = self.size
        return f"0,{size['grid_step_days']},{size['days'] // size['grid_step_days'] + 1}"

    def setup_code(self):
        return f"import temporank; temporank.load_network({self.path('net.txt')!r})"

    def commands(self):
        return [
            (["ingest", "--events", os.path.join(self.inputs, "events.tsv"),
              "--grid", self._grid(), "--unit", "day",
              "--output", self.path("net.txt")], self.path("summary.json")),
            (["compare", self.path("uniform.cfg"), self.path("input.cfg"),
              *COMMON, "--output", self.path("taus.csv")], None),
            (["localize", "--network", self.path("net.txt"),
              "--nodes", ",".join(map(str, self.nodes)), "--rate", self.rate,
              "--tol", repr(self.tol), *COMMON, "--output", self.path("bounds.csv")], None),
        ]

    def _check(self):
        step = self.size["grid_step_days"]
        network = checks.read_network(self.path("net.txt"))
        return (checks.ingest_summary(self.path("summary.json"), self.tallies)
                + checks.ingested_network(network, self.tallies, step)
                + checks.taus(self.path("taus.csv"), checks.grid_days(step, self.size["days"]),
                              "uniform vs input")
                + checks.bounds(self.path("bounds.csv"), network[1], self.nodes,
                                float(self.rate), 0.85, self.tol))


class LongHorizon(Workload):
    """One `compute` over many instants of a churning network, to a CSV file.

    Accumulation re-sums all past snapshots (quadratic in the instant
    count) and the power matvec dominate; netfile is read only; CSV
    formatting is the largest output of the three workloads.
    """

    name = "long-horizon"
    rate = 0.05
    tol = 1e-10

    def prepare(self) -> None:
        super().prepare()
        size = self.size
        self.tallies = inputs.cached(self.inputs, lambda d: inputs.churn_network(
            d, self.seed, nodes=size["nodes"], out_degree=size["out_degree"],
            instants=size["instants"], churn=size["churn"]))
        with np.load(os.path.join(self.inputs, "churn.npz")) as arrays:
            self.arrays = {key: arrays[key] for key in arrays.files}

    def setup_code(self):
        network = os.path.join(self.inputs, "churn.net")
        return f"import temporank; temporank.load_network({network!r})"

    def commands(self):
        return [(["compute", "--network", os.path.join(self.inputs, "churn.net"),
                  "--rate", repr(self.rate), "--solver", "power", "--tol", repr(self.tol),
                  *COMMON, "--output", self.path("scores.csv")], None)]

    def _check(self):
        count = self.size["instants"]
        middle = int(np.random.default_rng([self.seed, 3]).integers(1, count - 1))
        return checks.churn_trajectory(self.path("scores.csv"), self.arrays,
                                       self.rate, 0.85, self.tol, [0, middle, count - 1])


class ContinuousStudy(Workload):
    """A discretization study and a dense-grid trajectory on the 5-node preset.

    The control workload for kernel, ingest, netfile and tau changes, and
    the only one that runs quadrature: many tiny accumulated matrices
    instead of a few large ones.  The preset is fixed, so the seed only
    picks which grid instants the check recomputes.
    """

    name = "continuous-study"

    def setup_code(self):
        return "import temporank; temporank.preset('paper-synthetic')"

    def commands(self):
        sizes = ",".join(map(str, self.size["sizes"]))
        return [
            (["converge", "--preset", "paper-synthetic", "--sizes", sizes,
              *COMMON, "--output", self.path("converge.csv")], None),
            (["compute", "--preset", "paper-synthetic",
              "--grid-count", str(self.size["grid_count"]),
              *COMMON, "--output", self.path("scores.csv")], None),
        ]

    def _check(self):
        count = self.size["grid_count"]
        rng = np.random.default_rng([self.seed, 4])
        sample = sorted({0, count - 1, *rng.integers(1, count - 1, size=3).tolist()})
        return (checks.convergence(self.path("converge.csv"), self.size["sizes"])
                + checks.synthetic_trajectory(self.path("scores.csv"), count,
                                              1.0, 0.85, sample))


WORKLOADS = {cls.name: cls for cls in (EventStudy, LongHorizon, ContinuousStudy)}


def make_workload(root: str, name: str, size_name: str, seed: int) -> Workload:
    """The named workload at a named size and seed, with its files under ``root``.

    The directory is keyed by the input sizes and the generator version
    too, so cached inputs are never reused after either changes.
    """
    size = SIZES[size_name][name]
    work = os.path.join(root, f"{name}-{size_name}-{seed}-{inputs.cache_key(size)}")
    return WORKLOADS[name](size, seed, work)
