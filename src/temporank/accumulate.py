"""Time-decayed accumulation of adjacency and its stochastic normalization.

The accumulated matrix B sums (discrete scale) or integrates (continuous
scale) past adjacency weighted by a decay kernel; its row normalization is
the transition matrix the ranking operates on.  A node whose accumulated
row is entirely zero has been dangling at every instant so far and keeps a
zero row here; the teleportation patch happens downstream.

:func:`iter_instants` walks the instants of a trajectory in time order.
For :class:`ExponentialDecay` it carries B forward through the kernel's
semigroup property instead of rebuilding it, with every row stored up to
a positive factor (which row normalization ignores); any other kernel
goes through :func:`accumulate_discrete` / :func:`accumulate_continuous`
per instant, the reference path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np
from scipy import sparse

from .errors import InvalidInputError
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork
from .quadrature import QuadratureConfig, adaptive_simpson
from .schedules import (DampingSchedule, DecayKernel, ExponentialDecay,
                        PersonalizationSchedule, damping_at, personalization_at)

__all__ = [
    "AccumulatedMatrix", "StochasticSnapshot", "InstantSetup",
    "accumulate_discrete", "row_normalize", "accumulate_continuous", "truncate",
    "iter_instants",
]


@dataclass(frozen=True)
class AccumulatedMatrix:
    """Decay-weighted sum of adjacency up to (and including) ``instant``."""

    matrix: sparse.csr_array
    instant: float


@dataclass(frozen=True)
class StochasticSnapshot:
    """Row-normalized accumulated matrix at one instant.

    Rows with ``dangling == 0`` sum to one; rows with ``dangling == 1`` are
    exactly zero.
    """

    matrix: sparse.csr_array
    dangling: np.ndarray
    instant: float

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _weight(kernel: DecayKernel, s: float, t: float) -> float:
    try:
        return kernel.weight(s, t)
    except OverflowError:
        raise InvalidInputError(
            f"decay kernel overflows at s={s}, t={t}; {kernel!r} is out of "
            "floating-point range over this time span") from None


def _check_kernel_at(kernel: DecayKernel, t: float) -> None:
    weight = _weight(kernel, t, t)
    if not weight > 0:
        raise InvalidInputError(
            f"decay kernel must be positive at s == t (got {weight!r} at t={t})")


def _check_finite(matrix: sparse.csr_array, t: float) -> None:
    bad = ~np.isfinite(matrix.data)
    if bad.any():
        row = int(np.searchsorted(matrix.indptr, np.flatnonzero(bad)[0], side="right"))
        raise InvalidInputError(
            f"accumulated row {row} is not finite at t={t}; "
            "the decay kernel or an edge weight is out of floating-point range")


def accumulate_discrete(net: DiscreteTemporalNetwork, kernel: DecayKernel,
                        k: int) -> AccumulatedMatrix:
    """B(t_k) = sum over l <= k of w(t_l, t_k) * A(t_l), for 1-based ``k``.

    Terms are added in ascending l so results are bit-reproducible.
    """
    if not 1 <= k <= net.instant_count:
        raise InvalidInputError(f"instant index {k} outside 1..{net.instant_count}")
    t_k = float(net.instants[k - 1])
    _check_kernel_at(kernel, t_k)
    total = sparse.csr_array((net.n, net.n))
    for l in range(k):
        weight = _weight(kernel, float(net.instants[l]), t_k)
        if weight != 0.0:
            total = total + net.snapshots[l] * weight
    total = sparse.csr_array(total)
    _check_finite(total, t_k)
    return AccumulatedMatrix(total, t_k)


def row_normalize(accumulated) -> StochasticSnapshot:
    """Divide each positive row by its sum; zero rows become dangling."""
    if isinstance(accumulated, AccumulatedMatrix):
        matrix, instant = accumulated.matrix, accumulated.instant
    else:
        matrix, instant = sparse.csr_array(accumulated), float("nan")
    matrix = sparse.csr_array(matrix, dtype=float)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    dangling = (row_sums == 0).astype(np.int8)
    normalized = matrix.copy()
    if normalized.nnz:
        per_entry = np.repeat(np.where(row_sums > 0, row_sums, 1.0),
                              np.diff(normalized.indptr))
        normalized.data = normalized.data / per_entry
    return StochasticSnapshot(normalized, dangling, instant)


def accumulate_continuous(net: ContinuousTemporalNetwork, kernel: DecayKernel,
                          t: float, quad: QuadratureConfig = QuadratureConfig()
                          ) -> StochasticSnapshot:
    """Row normalization of B(t), B_ij(t) = integral of w(s, t) a_ij(s) ds.

    At t == t0 the integral degenerates, so the snapshot is the row
    normalization of the pointwise adjacency A(t0) instead.
    """
    t = float(t)
    t0, t1 = net.interval
    if not t0 <= t <= t1:
        raise InvalidInputError(f"t={t} outside the network interval [{t0}, {t1}]")
    _check_kernel_at(kernel, t)
    if t == t0:
        return replace(row_normalize(net.adjacency_at(t0)), instant=t0)

    weight = kernel.profile(t)
    values = []
    for label, fn in zip(_edge_labels(net), net.edge_order.functions):
        scalar = fn.scalar_fn
        try:
            values.append(adaptive_simpson(lambda s: weight(s) * scalar(s), t0, t,
                                           quad, label=label))
        except OverflowError:
            raise InvalidInputError(
                f"integrand of {label} overflows on [{t0}, {t}]; {kernel!r} "
                "is out of floating-point range over this time span") from None
    accumulated = net.edge_csr(values)
    _check_finite(accumulated, t)
    return replace(row_normalize(accumulated), instant=t)


def _edge_labels(net: ContinuousTemporalNetwork) -> list[str]:
    """1-based names of the edges in :attr:`~ContinuousTemporalNetwork.edge_order`."""
    rows, cols, _ = net.edge_order
    return [f"edge ({i + 1}, {j + 1})" for i, j in zip(rows.tolist(), cols.tolist())]


def truncate(net: ContinuousTemporalNetwork, count: int) -> DiscreteTemporalNetwork:
    """Sample the network on the uniform partition with ``count`` points.

    Snapshot k is the pointwise adjacency at s_k = t0 + (k-1)(t1-t0)/(count-1).
    """
    if count < 2:
        raise InvalidInputError(f"partition needs at least 2 points, got {count}")
    t0, t1 = net.interval
    instants = t0 + (t1 - t0) * np.arange(count) / (count - 1)
    values = np.array([fn(instants) for fn in net.edge_order.functions]).reshape(-1, count)
    return DiscreteTemporalNetwork(
        net.n, instants, tuple(net.edge_csr(values[:, k]) for k in range(count)))


# ---------------------------------------------------------------------------
# the per-instant pipeline


@dataclass(frozen=True)
class InstantSetup:
    """What one instant's solve needs: snapshot, damping, v and u.

    ``k`` is the 1-based position of ``instant`` in the caller's grid.
    ``v`` is None when no personalization schedule was given; ``u`` is
    None unless the snapshot has dangling rows and a dangling distribution
    was given.  Both read the instantaneous adjacency, not B.
    """

    k: int
    instant: float
    snapshot: StochasticSnapshot
    damping: float
    v: np.ndarray | None
    u: np.ndarray | None


def iter_instants(net, kernel: DecayKernel, damping: DampingSchedule,
                  personalization: PersonalizationSchedule | None = None,
                  dangling_dist: PersonalizationSchedule | None = None,
                  grid=None, quad: QuadratureConfig = QuadratureConfig()
                  ) -> Iterator[InstantSetup]:
    """Set up every instant of a trajectory, one at a time, in time order.

    A discrete network uses its own instants; a continuous one needs
    ``grid``, which is evaluated in sorted order whatever order it comes
    in (``k`` still names the caller's position).  Only the running
    accumulated matrix is kept between instants, so a consumer that drops
    each setup after use holds one snapshot at a time.
    """
    if isinstance(net, DiscreteTemporalNetwork):
        times = np.asarray(net.instants, dtype=float)
        order = np.arange(len(times))
        snapshots = _discrete_snapshots(net, kernel)
    else:
        if grid is None:
            raise InvalidInputError("continuous networks need an evaluation grid")
        times = np.asarray(grid, dtype=float).ravel()
        order = np.argsort(times, kind="stable")
        snapshots = _continuous_snapshots(net, kernel, times[order], quad)
    count = len(times)
    for position, snapshot in zip(order, snapshots):
        k = int(position) + 1
        t = float(times[position])
        adjacency = net.snapshot_at(k) if isinstance(net, DiscreteTemporalNetwork) \
            else net.adjacency_at(t)
        v = None if personalization is None else \
            personalization_at(personalization, adjacency, k, t)
        u = None
        if dangling_dist is not None and snapshot.dangling.any():
            u = personalization_at(dangling_dist, adjacency, k, t)
        yield InstantSetup(k, t, snapshot, damping_at(damping, k, count, t), v, u)


def _checked_rate(kernel: ExponentialDecay, span: float) -> float:
    rate = float(kernel.rate)
    if not math.isfinite(rate * span):
        raise InvalidInputError(
            f"decay exponent {kernel!r} over a span of {span} is not finite")
    return rate


def _scale_rows(matrix: sparse.csr_array, factors: np.ndarray) -> sparse.csr_array:
    scaled = matrix.copy()
    scaled.data = scaled.data * np.repeat(factors, np.diff(matrix.indptr))
    return scaled


def _merge_scales(old_log: np.ndarray, old_alive: np.ndarray,
                  new_log: float, new_alive: np.ndarray):
    """Per-row factors for e^{old_log} X + e^{new_log} Y, the larger factor set to one.

    Returns (log scale of the sum, factor on X, factor on Y).  A row that
    is nonzero in only one term keeps that term at factor one, so no row
    that is nonzero in exact arithmetic underflows to a dangling row.  The
    factor on an all-zero row is irrelevant and only capped at one.
    """
    log_scale = np.where(old_alive & new_alive, np.maximum(old_log, new_log),
                         np.where(old_alive, old_log, new_log))
    return (log_scale, np.exp(np.minimum(old_log - log_scale, 0.0)),
            np.exp(np.minimum(new_log - log_scale, 0.0)))


def _discrete_snapshots(net: DiscreteTemporalNetwork,
                        kernel: DecayKernel) -> Iterator[StochasticSnapshot]:
    """Snapshots at every instant: B_k = e^{-r(t_k - t_{k-1})} B_{k-1} + A_k.

    B_k is stored as diag(e^{log_scale}) @ matrix.
    """
    if not isinstance(kernel, ExponentialDecay):
        for k in range(1, net.instant_count + 1):
            yield row_normalize(accumulate_discrete(net, kernel, k))
        return
    instants = np.asarray(net.instants, dtype=float)
    span = float(instants[-1] - instants[0]) if len(instants) else 0.0
    rate = _checked_rate(kernel, span)
    matrix = sparse.csr_array((net.n, net.n))
    log_scale = np.zeros(net.n)
    previous = float(instants[0]) if len(instants) else 0.0
    for t, adjacency in zip(instants, net.snapshots):
        t = float(t)
        log_scale, old_factor, new_factor = _merge_scales(
            log_scale - rate * (t - previous), matrix.sum(axis=1) != 0,
            0.0, adjacency.sum(axis=1) != 0)
        matrix = _scale_rows(matrix, old_factor) + _scale_rows(adjacency, new_factor)
        _check_finite(matrix, t)
        previous = t
        yield replace(row_normalize(matrix), instant=t)


def _continuous_snapshots(net: ContinuousTemporalNetwork, kernel: DecayKernel,
                          times: np.ndarray, quad: QuadratureConfig
                          ) -> Iterator[StochasticSnapshot]:
    """Snapshots at ascending ``times``; t == t0 follows :func:`accumulate_continuous`."""
    if not isinstance(kernel, ExponentialDecay):
        for t in times:
            yield accumulate_continuous(net, kernel, float(t), quad)
        return
    for t, matrix, _ in _continuous_accumulated(net, kernel, times, quad):
        if t == net.t0:
            matrix = net.adjacency_at(t)
        yield replace(row_normalize(matrix), instant=t)


def _continuous_accumulated(net: ContinuousTemporalNetwork, kernel: ExponentialDecay,
                            times: np.ndarray, quad: QuadratureConfig):
    """(t, matrix, log_scale) at ascending ``times``, B(t) = diag(e^{log_scale}) @ matrix.

    B(t_k) = e^{-r(t_k - t_{k-1})} B(t_{k-1}) + integral over [t_{k-1}, t_k]
    of e^{-r(t_k - s)} a(s) ds, from B(t0) = 0, so each piece of the
    interval is integrated once.  Piece k gets the tolerance
    quad.tol * (t_k - t_{k-1}) / (t_K - t0); for rate >= 0 the old pieces
    only shrink, so the error of B at every instant stays within quad.tol.
    """
    t0, t1 = net.interval
    outside = times[~((t0 <= times) & (times <= t1))]
    if outside.size:
        raise InvalidInputError(
            f"t={float(outside[0])} outside the network interval [{t0}, {t1}]")
    span = float(times[-1]) - t0 if len(times) else 0.0
    rate = _checked_rate(kernel, span)
    rows, _, functions = net.edge_order
    labels = _edge_labels(net)
    scalars = [fn.scalar_fn for fn in functions]
    values = np.zeros(len(functions))   # entries of B, row i divided by e^{log_scale[i]}
    log_scale = np.zeros(net.n)
    previous = t0
    for t in times:
        t = float(t)
        if t > previous:
            # integrand factor e^{-r(anchor - s)} <= 1 on the piece; the
            # rest, e^{-r(t - anchor)}, is carried in the piece's log scale
            anchor = previous if rate < 0 else t
            piece_quad = replace(quad, tol=quad.tol * (t - previous) / span)
            piece = np.array([
                adaptive_simpson(lambda s: math.exp(-rate * (anchor - s)) * scalar(s),
                                 previous, t, piece_quad, label=label)
                for scalar, label in zip(scalars, labels)])
            log_scale, old_factor, new_factor = _merge_scales(
                log_scale - rate * (t - previous),
                np.bincount(rows, values, minlength=net.n) != 0,
                -rate * (t - anchor),
                np.bincount(rows, piece, minlength=net.n) != 0)
            values = old_factor[rows] * values + new_factor[rows] * piece
            previous = t
        matrix = net.edge_csr(values)
        _check_finite(matrix, t)
        yield t, matrix, log_scale
