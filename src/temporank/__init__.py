"""Time-dependent personalized PageRank for temporal networks.

Networks live on a discrete set of instants or on a real interval; edge
weights decay into an accumulated matrix whose row normalization drives
a per-instant Google matrix with time-varying damping and
personalization.  The package computes rank trajectories on both time
scales, per-node localization bounds valid for every personalization
vector, discretization error studies, and Kendall tau-b comparisons
between trajectories.

``import temporank`` loads no submodule and no numpy.  Each public name,
and each submodule, is imported from its home module when it is first
used (PEP 562), then kept in the package namespace.
"""

import sys

__version__ = "0.1.0"

#: the public names of each submodule, in the order of ``__all__``
_EXPORTS = {
    "accumulate": ["AccumulatedMatrix", "StochasticSnapshot", "accumulate_continuous",
                   "accumulate_discrete", "row_normalize", "truncate"],
    "config": ["RunConfig", "dump_config", "read_config", "resolve_config"],
    "errors": ["ConsistencyError", "ConvergenceError", "EventParseError",
               "IntegrationError", "InternalError", "InvalidInputError",
               "NetworkFormatError", "ScheduleRangeError", "TemporankError",
               "UndefinedTauError"],
    "graph": ["ContinuousTemporalNetwork", "DiscreteTemporalNetwork"],
    "ingest": ["EdgeEvent", "IngestSummary", "ParsedEvents", "build_snapshots",
               "parse_events", "sample_grid", "summarize"],
    "localization": ["LocalizationBounds", "ResolventColumn", "bounds_for_node",
                     "bounds_trajectory", "resolvent_column"],
    "netfile": ["dumps_network", "load_network", "loads_network", "save_network"],
    "pagerank": ["GoogleOperator", "PageRankTrajectory", "google_apply_transpose",
                 "pagerank_direct", "pagerank_power", "trajectory_continuous",
                 "trajectory_discrete"],
    "presets": ["PRESET_NAMES", "preset", "synthetic_five_node"],
    "quadrature": ["QuadratureConfig", "adaptive_simpson"],
    "ranking": ["TauSeries", "compare_trajectories", "kendall_tau"],
    "schedules": ["ConstantDamping", "CustomDamping", "CustomDecay",
                  "CustomPersonalization", "DampingSchedule", "DecayKernel",
                  "ExponentialDecay", "InputPersonalization",
                  "InverseInputPersonalization", "LinearDamping",
                  "PersonalizationSchedule", "TabulatedPersonalization",
                  "UniformPersonalization", "damping_at", "kernel_eval",
                  "personalization_at"],
    "timefuncs": ["TimeFunction"],
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]

#: home module of every public name and of every submodule (its own home)
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
_HOME["cli"] = "cli"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module, which -X importtime does not log
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
