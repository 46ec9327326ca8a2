"""Time-decayed accumulation of adjacency and its stochastic normalization.

The accumulated matrix B sums (discrete scale) or integrates (continuous
scale) past adjacency weighted by a decay kernel; its row normalization is
the transition matrix the ranking operates on.  A node whose accumulated
row is entirely zero has been dangling at every instant so far and keeps a
zero row here; the teleportation patch happens downstream.

The per-instant pipeline (:func:`_instant_chunks`) walks the instants of a
trajectory in time order and hands every solver, of ranks and bounds
alike, the same record: chunks of consecutive instants, each with its
1-based k, transition matrices P, dangling flags, damping, v and u.  Both
scales yield (t, B, A(t)) per instant, and :func:`_grouped` is the one
step that turns B into P.  For :class:`ExponentialDecay` both feed one
recurrence, :func:`_exponential`: B(t_k) = e^{-r(t_k - t_{k-1})} B(t_{k-1})
plus a term, with every row stored up to a positive factor (which row
normalization ignores).  The term is the snapshot A_k of a discrete
network; the integral of the piece [t_{k-1}, t_k] of a continuous one; or,
on the discrete scale of a continuous network (:class:`_Truncation`, what
`converge` runs), its samples A(t_k) at the partition instants, the
snapshots :func:`truncate` would build.  A discrete network's B is one
dense n x n array for the direct solve, each A_k scattered into it from
the network's record of entries with no CSR built, and CSR otherwise,
from the network's ``snapshots``; a continuous
network's edge set never changes, so on either of its scales B is one
vector on the edge order, placed in the dense stack or wrapped in one CSR
snapshot per instant only when it becomes P.  Any other kernel goes
through :func:`accumulate_discrete` / the integral of
:func:`accumulate_continuous` per instant, the reference path.  Only the
running B is kept between instants; a continuous grid's piece integrals
and its A(t) samples are computed once, before the first chunk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .graph import (ContinuousTemporalNetwork, DiscreteTemporalNetwork, _check_samples,
                    _csr_arrays, _dense_arrays, _edge_entries)
from .quadrature import QuadratureConfig, adaptive_simpson
from .schedules import (DampingSchedule, DecayKernel, ExponentialDecay,
                        PersonalizationSchedule, damping_at, personalization_at)

__all__ = [
    "AccumulatedMatrix", "StochasticSnapshot",
    "accumulate_discrete", "row_normalize", "accumulate_continuous", "truncate",
]

if TYPE_CHECKING:
    from scipy import sparse

#: a chunk of instants for the direct solve holds at most this many dense system entries (8 MB)
_CHUNK_ENTRIES = 2 ** 20


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


def _check_finite(matrix, t: float, rows: np.ndarray | None = None) -> None:
    """Name the first row, 1-based, with a non-finite entry of M: an n x n array or CSR, or
    given ``rows`` a data vector whose entry e lies in row rows[e]."""
    data = matrix if isinstance(matrix, np.ndarray) else matrix.data
    finite = np.isfinite(data)
    if not finite.all():
        first = np.flatnonzero(~finite)[0]   # in row-major order
        if rows is not None:
            row = rows[first]
        elif isinstance(matrix, np.ndarray):
            row = first // matrix.shape[1]
        else:
            row = np.searchsorted(matrix.indptr, first, side="right") - 1
        raise InvalidInputError(
            f"accumulated row {int(row) + 1} is not finite at t={t}; "
            "the decay kernel or an edge weight is out of floating-point range")


def accumulate_discrete(net: DiscreteTemporalNetwork, kernel: DecayKernel,
                        k: int) -> AccumulatedMatrix:
    """B(t_k) = sum over l <= k of w(t_l, t_k) * A(t_l), for 1-based ``k``.

    Terms are added in ascending l so results are bit-reproducible.
    """
    from scipy import sparse
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
    from scipy import sparse
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
    return row_normalize(AccumulatedMatrix(net.edge_csr(_integrated(net, kernel, t, quad)), t))


def _integrated(net: ContinuousTemporalNetwork, kernel: DecayKernel, t: float,
                quad: QuadratureConfig) -> np.ndarray:
    """B(t) of :func:`accumulate_continuous` on the edge order, A(t0) at t == t0."""
    t0, t1 = net.interval
    if not t0 <= t <= t1:
        raise InvalidInputError(f"t={t} outside the network interval [{t0}, {t1}]")
    _check_kernel_at(kernel, t)
    if t == t0:
        return net.values_at([t0])[:, 0]

    # a kernel of unknown decay is split toward s = t as far as floats go
    rate = kernel.rate if isinstance(kernel, ExponentialDecay) else math.inf
    values = _edge_integrals(net, lambda s: kernel.weights(s, t), np.array([t0, t]),
                             rate, quad)[:, 0]
    _check_finite(values, t, net.edge_order.rows)
    return values


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
    return _truncation(net, count).discrete()


class _Truncation(NamedTuple):
    """What :func:`truncate` builds, kept as the edge values of its snapshots: the discrete
    scale of ``network`` at ``instants``, snapshot k holding column k of the (edges, K)
    ``values`` on the edge order.  :func:`_instant_chunks` feeds the columns to the one
    recurrence as they are, building no snapshot for it."""

    network: ContinuousTemporalNetwork
    instants: np.ndarray
    values: np.ndarray

    @property
    def n(self) -> int:
        return self.network.n

    def discrete(self) -> DiscreteTemporalNetwork:
        return DiscreteTemporalNetwork._of_entries(
            self.n, self.instants, _edge_entries(self.network, self.values),
            len(self.instants), patterned=True)


def _truncation(net: ContinuousTemporalNetwork, count: int) -> _Truncation:
    """:func:`truncate`'s network as a :class:`_Truncation`, failing as that network would."""
    try:
        count = operator.index(count)
    except TypeError:
        raise InvalidInputError(f"partition needs an integer count, got {count!r}") from None
    if count < 2:
        raise InvalidInputError(f"partition needs at least 2 points, got {count}")
    instants = _partition(net, count)
    values = net.values_at(instants)
    _check_samples(instants, values)
    return _Truncation(net, instants, values)


def _partition(net: ContinuousTemporalNetwork, count: int) -> np.ndarray:
    """The uniform partition of the network interval with ``count`` >= 1 points, [t0] for one."""
    t0, t1 = net.interval
    if count == 1:
        return np.array([t0])
    with np.errstate(over="ignore"):
        instants = t0 + (t1 - t0) * np.arange(count) / (count - 1)
    if not np.isfinite(instants).all():
        raise InvalidInputError(f"a {count}-point partition of [{t0}, {t1}] leaves float range")
    return instants


# ---------------------------------------------------------------------------
# the per-instant pipeline


def _instant_chunks(net, kernel, damping, personalization, dangling_dist, grid, quad,
                    direct: bool):
    """(instants, places, chunks): the caller's instants, the place of each in time order and
    the records (ks, P, dangling, dampings, vs, us) of consecutive instants in time order, ks
    their 1-based k in the caller's order.  For the ``direct`` solve a chunk holds up to
    max(1, _CHUNK_ENTRIES // n^2) instants and P is their (K, n, n) stack; otherwise it holds
    one instant and P is the 1-tuple of its CSR snapshot.  ``net`` is a discrete network, a
    continuous one evaluated on ``grid``, or the :class:`_Truncation` of a continuous one,
    its discrete scale.  A bad grid fails here, before any chunk."""
    if isinstance(net, _Truncation) and not isinstance(kernel, ExponentialDecay):
        net = net.discrete()   # any other kernel takes the reference path
    if isinstance(net, ContinuousTemporalNetwork):
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
        steps, edges = _continuous_steps(net, kernel, times[order], quad), net
    else:
        if grid is not None:
            raise InvalidInputError("a discrete network uses its own instants; give no grid")
        times = np.asarray(net.instants, dtype=float)
        order = np.arange(len(times))
        steps = _discrete_steps(net, kernel, direct)
        # a truncation's B and A(t) are on the edge order of its continuous network
        edges = net.network if isinstance(net, _Truncation) else None

    def adjacencies(sampled):   # A(t) of the steps' samples, or of their snapshot indices
        if edges is None:
            return [net.snapshots[index] for index in sampled]
        return edges.edge_csrs(np.column_stack(sampled))

    def at(position, adjacency, dangling):   # adjacency() is A(t), built if a schedule reads it
        k = int(position) + 1
        t = float(times[position])

        def teleport(schedule):   # a schedule that reads no A(t) gets the node count
            read = adjacency() if schedule.reads_adjacency else net.n
            return personalization_at(schedule, read, k, t)

        v = None if personalization is None else teleport(personalization)
        u = teleport(dangling_dist) if dangling_dist is not None and dangling.any() else None
        return k, damping_at(damping, k, len(times), t), v, u

    def chunks():
        positions = iter(order)
        size = max(1, _CHUNK_ENTRIES // max(1, net.n * net.n)) if direct else 1
        for transitions, dangling, sampled in _grouped(steps, size, direct, edges):
            built = cache(lambda: tuple(adjacencies(sampled)))
            instants = enumerate(zip(islice(positions, len(dangling)), dangling))
            ks, dampings, vs, us = zip(*(at(position, lambda i=i: built()[i], flags)
                                         for i, (position, flags) in instants))
            yield ks, transitions, dangling, dampings, vs, us
    return times, np.argsort(order), chunks()


def _grouped(steps, size: int, dense: bool, edges: ContinuousTemporalNetwork | None):
    """(P, dangling, a) of ``size`` steps (t, B, a) at a time, the one place B becomes P: the
    (K, n, n) stack of the Bs normalized by :func:`_normalize_dense` when ``dense``, else
    their CSR snapshots; a the steps' A(t), or what A(t) is built from.  B is on the edge
    order of the continuous network ``edges``, or, without one, an n x n array or CSR."""
    steps = iter(steps)
    for block in iter(lambda: list(islice(steps, size)), []):
        times, matrices, sampled = zip(*block)
        if edges is not None:
            transitions, dangling = _edge_transitions(edges, times, np.array(matrices), dense)
        elif dense:
            transitions, dangling = _normalize_dense(np.array(matrices))
        else:
            transitions = tuple(map(row_normalize, map(AccumulatedMatrix, matrices, times)))
            dangling = np.array([snapshot.dangling for snapshot in transitions])
        yield transitions, dangling, sampled


def _edge_transitions(net: ContinuousTemporalNetwork, times, values: np.ndarray,
                      dense: bool):
    """(P, dangling) of the (K, edges) ``values`` of B on the edge order: placed in a (K, n, n)
    stack for :func:`_normalize_dense` when ``dense``; else the nonzeros of each, normalized
    in one pass with the bits of :func:`row_normalize` and wrapped in one CSR snapshot."""
    if dense:
        rows, cols, _ = net.edge_order
        stack = np.zeros((len(values), net.n, net.n))
        stack[:, rows, cols] = values
        return _normalize_dense(stack)
    data, indices, indptr, starts = _edge_entries(net, values.T)
    data, dangling = _normalize_columns(data, indptr, starts)
    matrices = _csr_arrays(net.n, data, indices, indptr, starts)
    return tuple(map(StochasticSnapshot, matrices, dangling, times)), dangling


def _normalize_dense(stack: np.ndarray):
    """(P, dangling) of a (K, n, n) stack of B, normalized in place; row-major order is
    a canonical CSR's, so the nonzeros get the bits of :func:`row_normalize`."""
    kept = stack != 0
    indptr = np.pad(np.cumsum(kept.sum(axis=2), axis=1), ((0, 0), (1, 0)))
    starts = np.concatenate(([0], np.cumsum(indptr[:, -1]))).tolist()
    stack[kept], dangling = _normalize_columns(stack[kept], indptr, starts)
    return stack, dangling


def _normalize_columns(data: np.ndarray, indptr: np.ndarray, starts: list):
    """Row normalization of K CSR matrices stored one after another, in one pass.

    Matrix k has data ``data[starts[k]:starts[k + 1]]`` and row pointer
    ``indptr[k]``.  Returns (normalized data, (K, n) dangling flags).  The
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


def _checked_rate(kernel: ExponentialDecay, span: float) -> float:
    rate = float(kernel.rate)
    if not math.isfinite(rate * span):
        raise InvalidInputError(
            f"decay exponent {kernel!r} over a span of {span} is not finite")
    return rate


def _row_sums(matrix, n: int, rows: np.ndarray | None) -> np.ndarray:
    """Row sums of M, an n x n array or CSR, or given ``rows`` a data vector whose entry e
    lies in row rows[e]."""
    return matrix.sum(axis=1) if rows is None else np.bincount(rows, matrix, n)


def _scale_rows(matrix, factors: np.ndarray, rows: np.ndarray | None):
    """diag(factors) @ M, M as in :func:`_row_sums`."""
    if rows is not None:
        return matrix * factors[rows]
    if isinstance(matrix, np.ndarray):
        return factors[:, None] * matrix
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


def _exponential(terms, n: int, dense: bool = False, rows: np.ndarray | None = None):
    """(M, log_scale) after each term (t, decay, X, log_weight), B = diag(e^{log_scale}) @ M:
    B <- e^{decay} B + e^{log_weight} X from B = 0; X None adds nothing.  M is one n x n
    array when ``dense``, a zero where scipy's sum stores no entry and the same bits
    elsewhere, else CSR; given ``rows``, M and every X are instead data vectors on a fixed
    pattern (the edge order) whose entry e lies in row rows[e], holding the bits the array
    holds at those entries."""
    if rows is not None:
        matrix = np.zeros(len(rows))
    elif dense:
        matrix = np.zeros((n, n))
    else:
        from scipy import sparse
        matrix = sparse.csr_array((n, n))
    log_scale = np.zeros(n)
    for t, decay, term, log_weight in terms:
        if term is not None:
            with np.errstate(over="ignore", invalid="ignore"):   # a non-finite B fails below
                log_scale, old_factor, new_factor = _merge_scales(
                    log_scale + decay, _row_sums(matrix, n, rows) != 0,
                    log_weight, _row_sums(term, n, rows) != 0)
                matrix = _scale_rows(matrix, old_factor, rows) \
                    + _scale_rows(term, new_factor, rows)
            _check_finite(matrix, t, rows)
        yield matrix, log_scale


def _discrete_steps(net, kernel: DecayKernel, dense: bool):
    """(t_k, B_k, a_k) at every instant of a discrete network, a_k = k - 1, the index of A_k
    in its snapshots, and B_k an n x n array when ``dense``, else CSR; or of a
    :class:`_Truncation`, a_k its samples and B_k on the edge order.  For
    :class:`ExponentialDecay` B_k = e^{-r(t_k - t_{k-1})} B_{k-1} + A_k, up to row factors:
    the recurrence of the continuous scale, fed snapshots or samples with log weight 0
    instead of piece integrals.  The direct route scatters the network's entry record into
    each dense A_k, building no CSR."""
    instants = net.instants.tolist()
    if not instants:
        return
    rows = net.network.edge_order.rows if isinstance(net, _Truncation) else None
    adjacencies = range(len(instants)) if rows is None else net.values.T
    if isinstance(kernel, ExponentialDecay):
        rate = _checked_rate(kernel, instants[-1] - instants[0])
        terms = (net.values.T if rows is not None
                 else _dense_arrays(net.n, *net._entries) if dense else net.snapshots)
        terms = ((t, -rate * (t - previous), term, 0.0)
                 for t, previous, term in zip(instants, instants[:1] + instants, terms))
        accumulated = (matrix for matrix, _ in _exponential(terms, net.n, dense, rows))
    else:
        accumulated = (accumulate_discrete(net, kernel, k).matrix
                       for k in range(1, len(instants) + 1))
        accumulated = (matrix.toarray() for matrix in accumulated) if dense else accumulated
    yield from zip(instants, accumulated, adjacencies)


def _continuous_steps(net: ContinuousTemporalNetwork, kernel: DecayKernel, times: np.ndarray,
                      quad: QuadratureConfig):
    """(t, B(t), a(t)) at ascending in-interval ``times``, B and the values a(t) of A(t) on
    the edge order; at t == t0, B is A(t0).  The grid is sampled in one call after the first
    B, so that the clean errors of its quadrature come first."""
    if isinstance(kernel, ExponentialDecay):
        terms = _continuous_terms(net, kernel, times, quad)
        accumulated = (matrix for matrix, _ in _exponential(terms, net.n,
                                                            rows=net.edge_order.rows))
    else:
        accumulated = (None if t == net.t0 else _integrated(net, kernel, t, quad)
                       for t in times.tolist())
    samples = None
    for k, (t, matrix) in enumerate(zip(times.tolist(), accumulated)):
        if samples is None:
            samples = net.values_at(times)
        yield t, samples[:, k] if t == net.t0 else matrix, samples[:, k]


def _continuous_terms(net: ContinuousTemporalNetwork, kernel: ExponentialDecay,
                      times: np.ndarray, quad: QuadratureConfig):
    """The terms of :func:`_exponential` at ascending in-interval ``times``, from B(t0) = 0:
    term k decays B by e^{-r(t_k - t_{k-1})} and adds the integral over [t_{k-1}, t_k] of
    e^{-r(anchor_k - s)} a(s) ds, on the edge order, with log
    weight -r(t_k - anchor_k); it adds nothing at a repeated time.

    One quadrature call integrates every edge over every piece; piece k
    gets the tolerance quad.tol * (t_k - t_{k-1}) / (t_K - t0); for rate >= 0
    the old pieces only shrink, so the error of B at every instant stays
    within quad.tol.
    """
    t0 = net.t0
    rate = _checked_rate(kernel, float(times[-1]) - t0)
    breakpoints = np.concatenate(([t0], times))
    # integrand factor e^{-r(anchor - s)} <= 1 on each piece; the rest,
    # e^{-r(t - anchor)}, is the piece's log weight
    anchors = breakpoints[:-1] if rate < 0 else breakpoints[1:]

    def weight(s):
        # no quadrature node sits on a breakpoint, so s names its piece
        return np.exp(-rate * (anchors[np.searchsorted(breakpoints[1:-1], s)] - s))

    pieces = _edge_integrals(net, weight, breakpoints, rate, quad)
    return ((t, -rate * (t - previous), piece if t > previous else None,
             -rate * (t - anchor))
            for t, previous, anchor, piece in zip(times.tolist(), breakpoints.tolist(),
                                                  anchors.tolist(), pieces.T))
