"""Time-dependent personalized PageRank for temporal networks.

Networks live on a discrete set of instants or on a real interval; edge
weights decay into an accumulated matrix whose row normalization drives
a per-instant Google matrix with time-varying damping and
personalization.  The package computes rank trajectories on both time
scales, per-node localization bounds valid for every personalization
vector, discretization error studies, and Kendall tau-b comparisons
between trajectories.
"""

from .accumulate import (AccumulatedMatrix, StochasticSnapshot,
                         accumulate_continuous, accumulate_discrete,
                         row_normalize, truncate)
from .config import RunConfig, dump_config, read_config, resolve_config
from .errors import (ConsistencyError, ConvergenceError, EventParseError,
                     IntegrationError, InternalError, InvalidInputError,
                     NetworkFormatError, ScheduleRangeError, TemporankError,
                     UndefinedTauError)
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork
from .ingest import (EdgeEvent, IngestSummary, ParsedEvents, build_snapshots,
                     parse_events, sample_grid, summarize)
from .localization import (LocalizationBounds, ResolventColumn, bounds_for_node,
                           bounds_trajectory, resolvent_column)
from .netfile import dumps_network, load_network, loads_network, save_network
from .pagerank import (GoogleOperator, PageRankTrajectory, google_apply_transpose,
                       pagerank_direct, pagerank_power, trajectory_continuous,
                       trajectory_discrete)
from .presets import PRESET_NAMES, preset, synthetic_five_node
from .quadrature import QuadratureConfig, adaptive_simpson
from .ranking import TauSeries, compare_trajectories, kendall_tau
from .schedules import (ConstantDamping, CustomDamping, CustomDecay,
                        CustomPersonalization, DampingSchedule, DecayKernel,
                        ExponentialDecay, InputPersonalization,
                        InverseInputPersonalization, LinearDamping,
                        PersonalizationSchedule, TabulatedPersonalization,
                        UniformPersonalization, damping_at, kernel_eval,
                        personalization_at)
from .timefuncs import TimeFunction

__version__ = "0.1.0"

__all__ = [
    "AccumulatedMatrix", "StochasticSnapshot", "accumulate_continuous",
    "accumulate_discrete", "row_normalize", "truncate",
    "RunConfig", "dump_config", "read_config", "resolve_config",
    "ConsistencyError", "ConvergenceError", "EventParseError",
    "IntegrationError", "InternalError", "InvalidInputError",
    "NetworkFormatError", "ScheduleRangeError", "TemporankError",
    "UndefinedTauError",
    "ContinuousTemporalNetwork", "DiscreteTemporalNetwork",
    "EdgeEvent", "IngestSummary", "ParsedEvents", "build_snapshots",
    "parse_events", "sample_grid", "summarize",
    "LocalizationBounds", "ResolventColumn", "bounds_for_node",
    "bounds_trajectory", "resolvent_column",
    "dumps_network", "load_network", "loads_network", "save_network",
    "GoogleOperator", "PageRankTrajectory", "google_apply_transpose",
    "pagerank_direct", "pagerank_power", "trajectory_continuous",
    "trajectory_discrete",
    "PRESET_NAMES", "preset", "synthetic_five_node",
    "QuadratureConfig", "adaptive_simpson",
    "TauSeries", "compare_trajectories", "kendall_tau",
    "ConstantDamping", "CustomDamping", "CustomDecay", "CustomPersonalization",
    "DampingSchedule", "DecayKernel", "ExponentialDecay", "InputPersonalization",
    "InverseInputPersonalization", "LinearDamping", "PersonalizationSchedule",
    "TabulatedPersonalization", "UniformPersonalization", "damping_at",
    "kernel_eval", "personalization_at",
    "TimeFunction",
    "__version__",
]
