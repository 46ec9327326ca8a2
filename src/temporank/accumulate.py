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
network, or the integral of the piece [t_{k-1}, t_k] of a continuous one.
The discrete scale of a continuous network, what `converge` ranks, is the
discrete network :func:`truncate` builds from its samples.

B has two representations.  It is one vector on a fixed pattern of
entries sorted by (row, col): a continuous network's edge order, on either
route, or on the direct route the union of a discrete network's snapshot
entries, each A_k placed on it from the network's record of entries with
no CSR built.  Otherwise (a discrete network under power iteration or the
Neumann series) B is CSR, from the network's ``snapshots``.  Either way
:func:`_grouped` takes a chunk's B as one record of its nonzeros, normalizes
it in one pass and only then places it in the dense stack or wraps it in one
CSR snapshot per instant.  Any other kernel goes through
:func:`accumulate_discrete` / the integral of :func:`accumulate_continuous`
per instant, the reference path.  Only the running B is kept between
instants; a continuous grid's piece integrals and its A(t) samples are
computed once, before the first chunk.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidInputError, _calling
from .graph import (ContinuousTemporalNetwork, DiscreteTemporalNetwork, _check_kind, _check_points,
                    _coerced, _csr_arrays, _edge_entries, _entry_keys, _instant_index)
from .quadrature import QuadratureConfig, adaptive_simpson
from .schedules import (DampingSchedule, DecayKernel, ExponentialDecay,
                        PersonalizationSchedule, damping_at, personalization_at)

__all__ = [
    "AccumulatedMatrix", "StochasticSnapshot",
    "accumulate_discrete", "row_normalize", "accumulate_continuous", "truncate",
]

if TYPE_CHECKING:
    from scipy import sparse

#: the refusal of a grid given for a discrete network
_OWN_INSTANTS = "a discrete network uses its own instants; give no grid"

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
    with _calling("the decay kernel", lambda: f"s={s}, t={t}"):
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
    """Name the first row, 1-based, with a non-finite entry of M: a CSR matrix, or given
    ``rows`` a data vector whose entry e lies in row rows[e]."""
    data = matrix.data if rows is None else matrix
    finite = np.isfinite(data)
    if not finite.all():
        first = np.flatnonzero(~finite)[0]   # in row-major order
        row = np.searchsorted(matrix.indptr, first, side="right") - 1 if rows is None \
            else rows[first]
        raise InvalidInputError(
            f"accumulated row {int(row) + 1} is not finite at t={t}; "
            "the decay kernel or an edge weight is out of floating-point range")


def accumulate_discrete(net: DiscreteTemporalNetwork, kernel: DecayKernel,
                        k: int) -> AccumulatedMatrix:
    """B(t_k) = sum over l <= k of w(t_l, t_k) * A(t_l), for 1-based ``k``.

    Terms are added in ascending l so results are bit-reproducible.
    """
    from scipy import sparse
    k = _instant_index(k, net.instant_count)
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
    t = _coerced(f"instant must be a number, got {t!r}", float, t)
    return row_normalize(AccumulatedMatrix(net.edge_csr(_integrated(net, kernel, t, quad)), t))


def _integrated(net: ContinuousTemporalNetwork, kernel: DecayKernel, t: float,
                quad: QuadratureConfig) -> np.ndarray:
    """B(t) of :func:`accumulate_continuous` on the edge order, A(t0) at t == t0, each row
    divided by its power of two c_i (see :func:`_edge_integrals`)."""
    t0, t1 = net.interval
    if not t0 <= t <= t1:
        raise InvalidInputError(f"t={t} outside the network interval [{t0}, {t1}]")
    _check_kernel_at(kernel, t)
    if t == t0:
        return net.values_at([t0])[:, 0] / net._edge_scales

    # a kernel of unknown decay is split toward s = t as far as floats go
    rate = kernel.rate if isinstance(kernel, ExponentialDecay) else math.inf

    def weights(s):
        with _calling("the decay kernel", lambda: f"t={t}"):
            return kernel.weights(s, t)

    values = _edge_integrals(net, weights, np.array([t0, t]), rate, quad)[:, 0]
    _check_finite(values, t, net.edge_order.rows)
    return values


def _edge_integrals(net: ContinuousTemporalNetwork, weight, breakpoints: np.ndarray,
                    rate: float, quad: QuadratureConfig) -> np.ndarray:
    """(edges, pieces) integrals of weight(s) * a_e(s) / c_e; a non-finite value names its
    edge.  c_e is the power of two of edge e's row (``net._edge_scales``): row
    normalization ignores it, and quad.tol bounds each row's error relative to it, so the
    weights' scale does not matter.

    A weight like e^{-|rate| d}, d the distance from the right end of a
    piece (the left for rate < 0), has its mass within 1/|rate| of that
    end, too thin a layer for the nodes of a w-wide piece once |rate| w > 16:
    each piece is split at w/2, w/4, ... from that end until the part
    there is at most 16/|rate| wide, or as far as floats go.
    """
    def integrand(s):
        with np.errstate(all="ignore"):
            values = net.values_at(s) / net._edge_scales[:, None] * weight(s)
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
    The samples are kept as the network's record of entries, on the edge order.
    """
    _check_kind(net, ContinuousTemporalNetwork, "continuous temporal network")
    count = _coerced(f"partition needs an integer count, got {count!r}", operator.index, count)
    if count < 2:
        raise InvalidInputError(f"partition needs at least 2 points, got {count}")
    instants = _partition(net, count)
    rows, cols, _ = net.edge_order
    return DiscreteTemporalNetwork._of_entries(
        net.n, instants, _edge_entries(net.n, rows, cols, net.values_at(instants)), count,
        patterned=True)


def _partition(net: ContinuousTemporalNetwork, count: int) -> np.ndarray:
    """The uniform partition of the network interval with ``count`` >= 1 points, [t0] for one."""
    t0, t1 = net.interval
    _check_points(count, f"a {count}-point partition of [{t0}, {t1}]")
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
    one instant and P is the 1-tuple of its CSR snapshot.  ``net`` is a discrete network or a
    continuous one evaluated on ``grid``.  B lies on a fixed pattern of entries: a continuous
    network's edge order, or on the direct route the union of a discrete network's snapshot
    entries; a discrete network's B is CSR otherwise.  A bad grid or schedule fails here,
    before any chunk."""
    for schedule in (personalization, dangling_dist):
        _check_kind(schedule, (PersonalizationSchedule, type(None)), "personalization schedule")
    if isinstance(net, ContinuousTemporalNetwork):
        if grid is None:
            raise InvalidInputError("continuous networks need an evaluation grid")
        what = "grid must be a non-empty 1-d sequence of numbers"
        times = _coerced(what, np.asarray, grid, float)
        if times.ndim != 1 or times.size == 0:
            raise InvalidInputError(what)
        outside = times[~((net.t0 <= times) & (times <= net.t1))]
        if outside.size:
            raise InvalidInputError(f"t={float(outside[0])} outside the network "
                                    f"interval [{net.t0}, {net.t1}]")
        order = np.argsort(times, kind="stable")
        steps = _continuous_steps(net, kernel, times[order], quad)
        pattern = net.edge_order

        def adjacencies(sampled):   # A(t) of the steps' samples on the edge order
            return net.edge_csrs(np.column_stack(sampled))
    else:
        if grid is not None:
            raise InvalidInputError(_OWN_INSTANTS)
        times = np.asarray(net.instants, dtype=float)
        order = np.arange(len(times))
        pattern = _snapshot_pattern(net) if direct else None
        steps = _discrete_steps(net, kernel, pattern)

        def adjacencies(sampled):   # A(t) of the steps' snapshot indices
            return [net.snapshots[index] for index in sampled]

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
        for transitions, dangling, sampled in _grouped(steps, size, direct, net.n, pattern):
            built = cache(lambda: tuple(adjacencies(sampled)))
            instants = enumerate(zip(islice(positions, len(dangling)), dangling))
            ks, dampings, vs, us = zip(*(at(position, lambda i=i: built()[i], flags)
                                         for i, (position, flags) in instants))
            yield ks, transitions, dangling, dampings, vs, us
    return times, np.argsort(order), chunks()


def _snapshot_pattern(net: DiscreteTemporalNetwork):
    """(rows, cols, places, data, starts): the union of the stored entries of a discrete
    network's snapshots, sorted by (row, col), and snapshot k's entries as they lie in the
    network's record, weights data[starts[k]:starts[k + 1]] at those places on the union.
    The initial adjacency is no term of B and stays out."""
    data, indices, indptr, starts = net._entries
    count = net.instant_count
    keys, places = np.unique(_entry_keys(net.n, indices[:starts[count]], indptr[:count]),
                             return_inverse=True)
    rows, cols = np.divmod(keys, net.n)
    return rows, cols, places, data, starts[:count + 1]


def _grouped(steps, size: int, dense: bool, n: int, pattern: tuple | None):
    """(P, dangling, a) of ``size`` steps (t, B, a) at a time, the one place B becomes P; a
    the steps' A(t), or what A(t) is built from.  B is a vector on ``pattern``, whose first
    two fields are the rows and columns of n x n entries sorted by (row, col), or without a
    pattern one instant's CSR.  Either way the chunk's B is one record of its nonzeros, as
    :func:`_edge_entries` gives them, normalized in one :func:`_normalize_columns` pass; P
    is the record scattered into a (K, n, n) stack when ``dense``, else one CSR snapshot per
    instant, which may share B's index arrays."""
    steps = iter(steps)
    for block in iter(lambda: list(islice(steps, size)), []):
        times, matrices, sampled = zip(*block)
        if pattern is None:
            (matrix,) = matrices
            data, indices, indptr, starts = (matrix.data, matrix.indices, matrix.indptr[None],
                                             [0, matrix.nnz])
        else:
            data, indices, indptr, starts = _edge_entries(n, *pattern[:2], np.array(matrices).T)
        data, dangling = _normalize_columns(data, indptr, starts)
        if dense:
            transitions = np.zeros((len(times), n * n))
            transitions[np.repeat(np.arange(len(times)), np.diff(starts)),
                        _entry_keys(n, indices, indptr)] = data
            transitions = transitions.reshape(len(times), n, n)
        else:
            transitions = tuple(map(StochasticSnapshot,
                                    _csr_arrays(n, data, indices, indptr, starts),
                                    dangling, times))
        yield transitions, dangling, sampled


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
    rate = _coerced(f"decay rate must be a number, got {kernel.rate!r}", float, kernel.rate)
    if not math.isfinite(rate * span):
        raise InvalidInputError(
            f"decay exponent {kernel!r} over a span of {span} is not finite")
    return rate


def _row_sums(matrix, n: int, rows: np.ndarray | None) -> np.ndarray:
    """Row sums of M, a CSR matrix, or given ``rows`` a data vector whose entry e lies in row
    rows[e]."""
    return matrix.sum(axis=1) if rows is None else np.bincount(rows, matrix, n)


def _scale_rows(matrix, factors: np.ndarray, rows: np.ndarray | None):
    """diag(factors) @ M, M as in :func:`_row_sums`."""
    if rows is not None:
        return matrix * factors[rows]
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


def _exponential(terms, n: int, rows: np.ndarray | None = None):
    """(M, log_scale) after each term (t, decay, X, log_weight), B = diag(e^{log_scale}) @ M:
    B <- e^{decay} B + e^{log_weight} X from B = 0; X None adds nothing.  M and every X are
    CSR, or given ``rows`` data vectors on a fixed pattern of entries whose entry e lies in
    row rows[e]; on the pattern M holds zeros where scipy's sum stores no entry, and the
    same bits elsewhere."""
    if rows is not None:
        matrix = np.zeros(len(rows))
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


def _discrete_steps(net: DiscreteTemporalNetwork, kernel: DecayKernel, pattern: tuple | None):
    """(t_k, B_k, k - 1) at every instant of a discrete network, k - 1 the index of A_k in
    its snapshots, and B_k CSR, or given the ``pattern`` of :func:`_snapshot_pattern` a
    vector on it.  For :class:`ExponentialDecay`
    B_k = e^{-r(t_k - t_{k-1})} B_{k-1} + A_k, up to row factors: the recurrence of the
    continuous scale, fed snapshots with log weight 0 instead of piece integrals; on the
    pattern each A_k is placed there from the network's entry record, building no CSR.  Any
    other kernel's B_k is the CSR of :func:`accumulate_discrete`, placed on the pattern if
    it is given."""
    instants = net.instants.tolist()
    if not instants:
        return
    rows, cols, places, data, starts = (None,) * 5 if pattern is None else pattern
    if isinstance(kernel, ExponentialDecay):
        rate = _checked_rate(kernel, instants[-1] - instants[0])
        adjacencies = net.snapshots if pattern is None else (
            _placed(len(rows), places[start:end], data[start:end])
            for start, end in zip(starts, starts[1:]))
        terms = ((t, -rate * (t - previous), term, 0.0)
                 for t, previous, term in zip(instants, instants[:1] + instants, adjacencies))
        accumulated = (matrix for matrix, _ in _exponential(terms, net.n, rows))
    else:
        accumulated = (accumulate_discrete(net, kernel, k).matrix
                       for k in range(1, len(instants) + 1))
        if pattern is not None:
            keys = rows * net.n + cols
            accumulated = (_placed(len(rows), np.searchsorted(keys, _entry_keys(
                net.n, matrix.indices, matrix.indptr[None])), matrix.data)
                           for matrix in accumulated)
    yield from zip(instants, accumulated, range(len(instants)))


def _placed(size: int, places: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The vector of ``size`` zeros holding ``values`` at ``places``."""
    vector = np.zeros(size)
    vector[places] = values
    return vector


def _continuous_steps(net: ContinuousTemporalNetwork, kernel: DecayKernel, times: np.ndarray,
                      quad: QuadratureConfig):
    """(t, B(t), a(t)) at ascending in-interval ``times``, B and the values a(t) of A(t) on
    the edge order, B's rows divided by their powers of two c_i (see
    :func:`_edge_integrals`); at t == t0, B is A(t0) so divided.  The grid is sampled in one
    call after the first B, so that the clean errors of its quadrature come first."""
    if isinstance(kernel, ExponentialDecay):
        terms = _continuous_terms(net, kernel, times, quad)
        accumulated = (matrix for matrix, _ in _exponential(terms, net.n, net.edge_order.rows))
    else:
        accumulated = (None if t == net.t0 else _integrated(net, kernel, t, quad)
                       for t in times.tolist())
    samples = None
    for k, (t, matrix) in enumerate(zip(times.tolist(), accumulated)):
        if samples is None:
            samples = net.values_at(times)
        yield t, samples[:, k] / net._edge_scales if t == net.t0 else matrix, samples[:, k]


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
