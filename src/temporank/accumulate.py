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
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork, _column_csrs
from .quadrature import QuadratureConfig, adaptive_simpson
from .schedules import (DampingSchedule, DecayKernel, ExponentialDecay,
                        PersonalizationSchedule, damping_at, personalization_at)

__all__ = [
    "AccumulatedMatrix", "StochasticSnapshot", "InstantSetup",
    "accumulate_discrete", "row_normalize", "accumulate_continuous", "truncate",
    "iter_instants",
]

#: a block of grid instants row-normalized in one pass has at most this
#: many entries in its (instants x (edges + nodes + 1)) index arrays
_BLOCK_ENTRIES = 2 ** 20


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
    """Divide each positive row by its sum; zero rows become dangling.

    Each row sum adds the row's stored entries, as scipy's
    ``csr.sum(axis=1)`` does; this is :func:`_normalize_columns` on one matrix.
    """
    if isinstance(accumulated, AccumulatedMatrix):
        matrix, instant = accumulated.matrix, accumulated.instant
    else:
        matrix, instant = sparse.csr_array(accumulated), float("nan")
    matrix = sparse.csr_array(matrix, dtype=float)
    normalized = matrix.copy()
    normalized.data, dangling = _normalize_columns(matrix.data, matrix.indptr[None],
                                                   [0, matrix.nnz])
    return StochasticSnapshot(normalized, dangling[0], instant)


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

    # a kernel of unknown decay is split toward s = t as far as floats go
    rate = kernel.rate if isinstance(kernel, ExponentialDecay) else math.inf
    values = _edge_integrals(net, lambda s: kernel.weights(s, t), np.array([t0, t]),
                             rate, quad)
    accumulated = net.edge_csr(values[:, 0])
    _check_finite(accumulated, t)
    return replace(row_normalize(accumulated), instant=t)


def _edge_integrals(net: ContinuousTemporalNetwork, weight, breakpoints: np.ndarray,
                    rate: float, quad: QuadratureConfig) -> np.ndarray:
    """(edges, pieces) integrals of weight(s) * a_e(s); a non-finite value names its edge.

    A weight like e^{-|rate| d}, d the distance from the right end of a
    piece (the left for rate < 0), has its mass within 1/|rate| of that
    end, too thin a layer for the nodes of a w-wide piece once |rate| w > 16:
    each piece is split at w/2, w/4, ... from that end until the part
    there is at most 16/|rate| wide, or as far as floats go.
    """
    def integrand(s):
        with np.errstate(all="ignore"):
            values = net.values_at(s) * weight(s)
        bad = ~np.isfinite(values)
        if bad.any():
            edge, point = np.argwhere(bad)[0]
            raise InvalidInputError(
                f"integrand of {net.edge_labels[edge]} overflows at s={s[point]:.6g}; "
                "the decay kernel or the edge weight is out of floating-point range")
        return values

    widths = np.diff(breakpoints)
    ratio = abs(rate) * widths.max(initial=0.0) / 16
    levels = math.ceil(min(52.0, math.log2(max(ratio, 1.0))))
    ends = breakpoints[:-1, None] if rate < 0 else breakpoints[1:, None]
    parts = np.sort(ends - np.sign(rate) * widths[:, None] * 0.5 ** np.arange(1, levels + 1),
                    axis=1)
    points = np.append(np.column_stack((breakpoints[:-1], parts)), breakpoints[-1])
    return np.add.reduceat(adaptive_simpson(integrand, points, quad, labels=net.edge_labels),
                           np.arange(widths.size) * (levels + 1), axis=1)


def truncate(net: ContinuousTemporalNetwork, count: int) -> DiscreteTemporalNetwork:
    """Sample the network on the uniform partition with ``count`` points.

    Snapshot k is the pointwise adjacency at s_k = t0 + (k-1)(t1-t0)/(count-1).
    """
    if count < 2:
        raise InvalidInputError(f"partition needs at least 2 points, got {count}")
    t0, t1 = net.interval
    instants = t0 + (t1 - t0) * np.arange(count) / (count - 1)
    return DiscreteTemporalNetwork(net.n, instants, tuple(net.edge_csrs(net.values_at(instants))))


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
    in (``k`` still names the caller's position).  A consumer that drops
    each setup after use holds one snapshot at a time.  A discrete network
    keeps only the running accumulated matrix between instants.  A
    continuous one holds the edge values at every grid instant and, for
    an :class:`ExponentialDecay` kernel, the (edges x instants) integrals
    over the grid's pieces from one quadrature call and the normalized B
    of every instant, all computed before the first instant.  A grid that
    is empty, not 1-d or outside the network interval fails at the call.
    """
    return _instants_and_setups(net, kernel, damping, personalization, dangling_dist,
                                grid, quad)[1]


def _instants_and_setups(net, kernel, damping, personalization, dangling_dist, grid, quad):
    """(instants, setups): a trajectory's instants in the caller's order and
    :func:`iter_instants` over them.  A bad grid fails here, before any setup."""
    if isinstance(net, DiscreteTemporalNetwork):
        times = np.asarray(net.instants, dtype=float)
        order = np.arange(len(times))
        pairs = zip(_discrete_snapshots(net, kernel), net.snapshots)
    else:
        if grid is None:
            raise InvalidInputError("continuous networks need an evaluation grid")
        times = np.asarray(grid, dtype=float)
        if times.ndim != 1 or times.size == 0:
            raise InvalidInputError("grid must be a non-empty 1-d sequence")
        outside = times[~((net.t0 <= times) & (times <= net.t1))]
        if outside.size:
            raise InvalidInputError(f"t={float(outside[0])} outside the network "
                                    f"interval [{net.t0}, {net.t1}]")
        order = np.argsort(times, kind="stable")
        pairs = _continuous_snapshots(net, kernel, times[order], quad)

    def setups():
        for position, (snapshot, adjacency) in zip(order, pairs):
            k = int(position) + 1
            t = float(times[position])
            v = None if personalization is None else \
                personalization_at(personalization, adjacency, k, t)
            u = None
            if dangling_dist is not None and snapshot.dangling.any():
                u = personalization_at(dangling_dist, adjacency, k, t)
            yield InstantSetup(k, t, snapshot, damping_at(damping, k, len(times), t), v, u)
    return times, setups()


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
                          times: np.ndarray, quad: QuadratureConfig):
    """(snapshot, A(t)) at ascending in-interval ``times``; at t == t0, B is A(t0).

    The grid is sampled in one call after the first snapshot's quadrature,
    so that its clean errors come first.  On the exponential path B is
    accumulated at every instant before the first is yielded; the instants
    are then row-normalized a block at a time, each block in one pass,
    and each snapshot and each A(t) is one CSR constructor over its
    instant's slice of the result.  Blocks are cut at _BLOCK_ENTRIES, so
    beyond the (edges x instants) values of B and A the memory of a pass
    does not grow with the grid.
    """
    if isinstance(kernel, ExponentialDecay):
        accumulated = np.empty((len(net.edges), len(times)))
        for column, (_, values, _) in enumerate(
                _continuous_accumulated(net, kernel, times, quad)):
            accumulated[:, column] = values
        samples = net.values_at(times)
        at_t0 = times == net.t0
        accumulated[:, at_t0] = samples[:, at_t0]
        width = max(1, _BLOCK_ENTRIES // (len(net.edges) + net.n + 1))
        for start in range(0, len(times), width):
            block = slice(start, start + width)
            data, indices, indptr, starts = net.nonzero_columns(accumulated[:, block])
            normalized, dangling = _normalize_columns(data, indptr, starts)
            snapshots = map(StochasticSnapshot,
                            _column_csrs(net.n, normalized, indices, indptr, starts),
                            dangling, times[block].tolist())
            yield from zip(snapshots, net.edge_csrs(samples[:, block]))
        return
    adjacencies = None
    for t in times.tolist():
        snapshot = None if t == net.t0 else accumulate_continuous(net, kernel, t, quad)
        if adjacencies is None:
            adjacencies = net.edge_csrs(net.values_at(times))
        adjacency = next(adjacencies)
        if snapshot is None:
            snapshot = replace(row_normalize(adjacency), instant=t)
        yield snapshot, adjacency


def _normalize_columns(data: np.ndarray, indptr: np.ndarray, starts: list):
    """Row normalization of K CSR matrices stored one after another, in one pass.

    Matrix k has data ``data[starts[k]:starts[k + 1]]`` and row pointer
    ``indptr[k]``, as :meth:`~ContinuousTemporalNetwork.nonzero_columns`
    returns them.  Returns (normalized data, (K, n) dangling flags).  The
    row sums are one ``np.add.reduceat`` over the stored entries of each
    nonempty row, the arithmetic of scipy's ``csr.sum(axis=1)``; stored
    entries are the nonzeros here, and an explicit zero in a row would
    move its sum by an ulp.
    """
    counts = np.diff(indptr, axis=1)
    filled = counts > 0
    row_sums = np.zeros(counts.shape)
    if data.size:
        row_sums[filled] = np.add.reduceat(
            data, (np.array(starts[:-1])[:, None] + indptr[:, :-1])[filled])
    per_entry = np.repeat(np.where(row_sums > 0, row_sums, 1.0).ravel(), counts.ravel())
    return data / per_entry, (row_sums == 0).astype(np.int8)


def _continuous_accumulated(net: ContinuousTemporalNetwork, kernel: ExponentialDecay,
                            times: np.ndarray, quad: QuadratureConfig):
    """(t, values, log_scale) at ascending ``times``: B(t) = diag(e^{log_scale}) @ B0,
    B0 holding ``values[e]`` on edge e of the edge order.

    B(t_k) = e^{-r(t_k - t_{k-1})} B(t_{k-1}) + integral over [t_{k-1}, t_k]
    of e^{-r(t_k - s)} a(s) ds, from B(t0) = 0.  One quadrature call
    integrates every edge over every piece; piece k gets the tolerance
    quad.tol * (t_k - t_{k-1}) / (t_K - t0); for rate >= 0 the old pieces
    only shrink, so the error of B at every instant stays within quad.tol.
    ``times`` must lie in the network interval.
    """
    t0 = net.t0
    span = float(times[-1]) - t0 if len(times) else 0.0
    rate = _checked_rate(kernel, span)
    breakpoints = np.concatenate(([t0], times))
    # integrand factor e^{-r(anchor - s)} <= 1 on each piece; the rest,
    # e^{-r(t - anchor)}, is carried in the piece's log scale
    anchors = breakpoints[:-1] if rate < 0 else breakpoints[1:]

    def weight(s):
        # no quadrature node sits on a breakpoint, so s names its piece
        return np.exp(-rate * (anchors[np.searchsorted(breakpoints[1:-1], s)] - s))

    pieces = _edge_integrals(net, weight, breakpoints, rate, quad)
    rows = net.edge_order.rows
    values = np.zeros(len(rows))   # entries of B, row i divided by e^{log_scale[i]}
    log_scale = np.zeros(net.n)
    for k, (t, piece) in enumerate(zip(times.tolist(), pieces.T)):
        previous = float(breakpoints[k])
        if t > previous:
            log_scale, old_factor, new_factor = _merge_scales(
                log_scale - rate * (t - previous),
                np.bincount(rows, values, minlength=net.n) != 0,
                -rate * (t - float(anchors[k])),
                np.bincount(rows, piece, minlength=net.n) != 0)
            values = old_factor[rows] * values + new_factor[rows] * piece
        if not np.isfinite(values).all():
            _check_finite(net.edge_csr(values), t)
        yield t, values, log_scale
