"""Decay kernels plus damping and personalization schedules.

Conventions used throughout the package:

* instant indices ``k`` are 1-based (``1 <= k <= N``), matching the file
  formats and the CLI;
* node indices inside arrays are 0-based;
* time carries whatever unit the network uses (days for event datasets,
  abstract units for synthetic networks); kernel rates are per that unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError, ScheduleRangeError, _calling

__all__ = [
    "DecayKernel", "ExponentialDecay", "CustomDecay",
    "DampingSchedule", "ConstantDamping", "LinearDamping", "CustomDamping",
    "PersonalizationSchedule", "UniformPersonalization", "InputPersonalization",
    "InverseInputPersonalization", "CustomPersonalization", "TabulatedPersonalization",
    "kernel_eval", "damping_at", "personalization_at",
]

_NORM_TOL = 1e-12


class DecayKernel:
    """Two-argument weight w(s, t): the strength an interaction at time s
    retains at time t.  Zero for s > t; positive at s == t."""

    def weight(self, s: float, t: float) -> float:
        raise NotImplementedError

    def weights(self, s: np.ndarray, t: float) -> np.ndarray:
        """Vectorized weight over an array of source times."""
        return np.array([self.weight(si, t) for si in np.asarray(s, dtype=float)])

    def __call__(self, s, t):
        return kernel_eval(self, s, t)


@dataclass(frozen=True)
class ExponentialDecay(DecayKernel):
    """w(s, t) = exp(-rate * (t - s)) for s <= t, else 0.

    ``rate`` carries inverse time units and may be negative, in which case
    older interactions weigh more, not less.
    """

    rate: float

    @property
    def half_life(self) -> float | None:
        """Time span after which a weight halves; None unless rate > 0."""
        return math.log(2.0) / self.rate if self.rate > 0 else None

    def weight(self, s, t):
        if s > t:
            return 0.0
        return math.exp(-self.rate * (t - s))

    def weights(self, s, t):
        s = np.asarray(s, dtype=float)
        return np.where(s > t, 0.0, np.exp(-self.rate * (t - s)))


@dataclass(frozen=True)
class CustomDecay(DecayKernel):
    """Wraps an arbitrary evaluator (s, t) -> weight.

    The evaluator must be pure, nonnegative, zero for s > t (enforced here
    by cutoff), positive at s == t, and right-up continuous at the
    network's left endpoint; only the cutoff is enforced mechanically.
    """

    fn: Callable[[float, float], float]

    def weight(self, s, t):
        if s > t:
            return 0.0
        return float(self.fn(s, t))


def kernel_eval(kernel: DecayKernel, s, t):
    """Evaluate a decay kernel, with the s > t cutoff applied.

    Accepts a scalar or ndarray ``s``.  Non-finite times are rejected.
    """
    t = float(t)
    if isinstance(s, np.ndarray) or isinstance(s, (list, tuple)):
        s = np.asarray(s, dtype=float)
        if not (np.isfinite(s).all() and math.isfinite(t)):
            raise InvalidInputError("kernel arguments must be finite")
        return kernel.weights(s, t)
    s = float(s)
    if not (math.isfinite(s) and math.isfinite(t)):
        raise InvalidInputError("kernel arguments must be finite")
    return kernel.weight(s, t)


# ---------------------------------------------------------------------------
# damping


class DampingSchedule:
    """Produces the link-following probability for an instant; values must
    lie strictly in (0, 1)."""

    def value(self, k: int, count: int, t: float) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDamping(DampingSchedule):
    damping: float

    def value(self, k, count, t):
        return self.damping


@dataclass(frozen=True)
class LinearDamping(DampingSchedule):
    """Interpolates by instant index: start + (end - start)*(k-1)/(N-1)."""

    start: float
    end: float

    def value(self, k, count, t):
        if count <= 1:
            return self.start
        return self.start + (self.end - self.start) * (k - 1) / (count - 1)


@dataclass(frozen=True)
class CustomDamping(DampingSchedule):
    """Arbitrary pure evaluator t -> damping."""

    fn: Callable[[float], float]

    def value(self, k, count, t):
        if t is None:
            raise InvalidInputError("custom damping schedule needs the instant value")
        return float(self.fn(t))


def damping_at(schedule: DampingSchedule, k: int, count: int, t: float | None = None) -> float:
    """Damping for 1-based instant ``k`` of ``count``; range-checked."""
    if not 1 <= k <= count:
        raise InvalidInputError(f"instant index {k} outside 1..{count}")
    with _calling("the damping schedule", lambda: f"instant k={k}, t={t}"):
        value = float(schedule.value(k, count, t))
    if not 0.0 < value < 1.0 or not math.isfinite(value):
        raise ScheduleRangeError(
            f"damping schedule produced {value!r} at instant {k}; must lie in (0, 1)")
    return value


# ---------------------------------------------------------------------------
# personalization


class PersonalizationSchedule:
    """Produces the teleport distribution for an instant: a positive vector
    of unit 1-norm.  The built-in recipes are proportional to simple
    functions of the instantaneous adjacency and normalized here.

    ``raw`` gets the adjacency A(t_k); a recipe that reads no more of it
    than its size sets ``reads_adjacency = False``, and trajectories then
    hand it the node count n instead, so that no A(t) is built for it."""

    reads_adjacency = True

    def raw(self, adjacency, k: int, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class UniformPersonalization(PersonalizationSchedule):
    reads_adjacency = False

    def raw(self, adjacency, k, t):
        return np.ones(_node_count(adjacency))


@dataclass(frozen=True)
class InputPersonalization(PersonalizationSchedule):
    """Proportional to 1 plus each node's instantaneous in-weight."""

    def raw(self, adjacency, k, t):
        return 1.0 + _column_sums(adjacency)


@dataclass(frozen=True)
class InverseInputPersonalization(PersonalizationSchedule):
    """Proportional to 1/(1 + in-weight): penalizes well-linked nodes."""

    def raw(self, adjacency, k, t):
        return 1.0 / (1.0 + _column_sums(adjacency))


@dataclass(frozen=True)
class CustomPersonalization(PersonalizationSchedule):
    """Arbitrary pure evaluator t -> vector (normalized here)."""

    reads_adjacency = False
    fn: Callable[[float], np.ndarray]

    def raw(self, adjacency, k, t):
        if t is None:
            raise InvalidInputError("custom personalization needs the instant value")
        return np.asarray(self.fn(t), dtype=float)


@dataclass(frozen=True)
class TabulatedPersonalization(PersonalizationSchedule):
    """One stored vector per instant (or a single vector reused everywhere)."""

    reads_adjacency = False
    vectors: tuple

    def raw(self, adjacency, k, t):
        rows = len(self.vectors)
        if rows == 1:
            return np.asarray(self.vectors[0], dtype=float)
        if not 1 <= k <= rows:
            raise InvalidInputError(
                f"tabulated personalization has {rows} rows but instant {k} was requested")
        return np.asarray(self.vectors[k - 1], dtype=float)


def _node_count(adjacency) -> int:
    """n of an n x n ``adjacency``, or ``adjacency`` itself if it is the count n."""
    return adjacency if isinstance(adjacency, (int, np.integer)) else adjacency.shape[0]


def _column_sums(adjacency) -> np.ndarray:
    from scipy import sparse
    if sparse.issparse(adjacency):
        return np.asarray(adjacency.sum(axis=0)).ravel()
    return np.asarray(adjacency, dtype=float).sum(axis=0)


def personalization_at(schedule: PersonalizationSchedule, adjacency,
                       k: int = 1, t: float | None = None) -> np.ndarray:
    """Teleport vector for an instant: positive, unit 1-norm, length n.

    ``adjacency`` is the instantaneous (not accumulated) adjacency A(t_k);
    the input recipes read their column sums from it.  A schedule whose
    ``reads_adjacency`` is False may be given the node count n instead.
    """
    n = _node_count(adjacency)
    if schedule.reads_adjacency and n is adjacency:   # given the count, not A(t)
        raise InvalidInputError(f"{type(schedule).__name__} reads the adjacency, "
                                f"not only the node count {n}")
    with _calling("the personalization schedule", lambda: f"instant k={k}, t={t}"):
        raw = np.asarray(schedule.raw(adjacency, k, t), dtype=float).ravel()
    if raw.shape != (n,):
        raise ScheduleRangeError(
            f"personalization produced shape {raw.shape}, expected ({n},)")
    if not np.isfinite(raw).all() or (raw <= 0).any():
        raise ScheduleRangeError(
            "personalization vector must be positive and finite componentwise")
    total = raw.sum()
    if not math.isfinite(total) or total <= 0:
        raise ScheduleRangeError("personalization vector is not normalizable")
    v = raw / total
    # guard against pathological scaling in custom evaluators
    if abs(v.sum() - 1.0) > _NORM_TOL:
        raise ScheduleRangeError("personalization vector failed to normalize")
    return v
