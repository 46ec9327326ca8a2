"""Timestamped edge-event streams to discrete snapshot sequences.

Input lines follow the common dataset convention

    src dst delta timestamp

with ``%`` starting a comment line, delta one of +1/-1 (edge appears or
disappears) and timestamps in seconds from the dataset's epoch zero.
Events accumulate into an integer-count running adjacency; sampling that
process at chosen instants yields a :class:`DiscreteTemporalNetwork`.

Edges are directed counts, so repeated adds push an entry above 1; the
downstream row normalization makes that harmless.  Equal timestamps keep
file order (the format does not define intra-timestamp order) and id
compaction follows ascending original id, so the same input always
produces bit-identical snapshots.

Events are held as columns (:class:`EventColumns`).  The parser
tokenizes the whole text at once with the network-file tokenizer, sorts
the columns stably by timestamp and compacts ids with ``np.unique``.
Whenever it cannot vouch for its result (a character other than
printable ASCII, tabs and newlines; a line without four fields; a token
``int``/``float`` would read differently; an id beyond int64; a value
that fails a check), the per-line parser reads the lines again, so both
give the same events or the same line-numbered :class:`EventParseError`.
The replay sorts the events by edge and takes cumulative sums of each
edge's deltas: under ``clamp`` an edge's count is the reflection
x_k = S_k - min(0, min_{j<=k} S_j) of its running sum S (Lindley's
recursion), and snapshot k holds each edge's last count at or before t_k.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConsistencyError, EventParseError, InvalidInputError
from .graph import DiscreteTemporalNetwork, _sorted_to_csr
from .netfile import _NotSure, _fields, _plain_bytes

__all__ = [
    "EdgeEvent", "EventColumns", "ParsedEvents", "IngestSummary",
    "parse_events", "build_snapshots", "sample_grid", "summarize",
]


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One edge change: ids are compacted 1-based, delta is +1 or -1."""

    src: int
    dst: int
    delta: int
    timestamp: float


class EventColumns(Sequence):
    """Events as int64 ``src``, ``dst``, ``delta`` and float64 ``timestamp`` arrays.

    Reads as a sequence of :class:`EdgeEvent`, each built on access.
    """

    __slots__ = ("src", "dst", "delta", "timestamp")

    def __init__(self, src, dst, delta, timestamp):
        self.src = src
        self.dst = dst
        self.delta = delta
        self.timestamp = timestamp

    @classmethod
    def of(cls, events) -> EventColumns:
        """``events`` if they are columns already, else an iterable of EdgeEvent as columns."""
        if isinstance(events, cls):
            return events
        try:
            return _columns([(e.src, e.dst, e.delta, e.timestamp) for e in events])
        except OverflowError:
            raise InvalidInputError("event ids and deltas must fit in int64") from None

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventColumns(self.src[index], self.dst[index], self.delta[index],
                                self.timestamp[index])
        return EdgeEvent(int(self.src[index]), int(self.dst[index]), int(self.delta[index]),
                         float(self.timestamp[index]))

    def __iter__(self):
        return map(EdgeEvent, self.src.tolist(), self.dst.tolist(), self.delta.tolist(),
                   self.timestamp.tolist())


def _columns(records: list) -> EventColumns:
    """Columns of (src, dst, delta, timestamp) tuples."""
    src, dst, delta, timestamp = zip(*records) if records else ((),) * 4
    return EventColumns(np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                        np.array(delta, dtype=np.int64), np.array(timestamp, dtype=float))


@dataclass(frozen=True)
class ParsedEvents:
    """Events sorted by timestamp, compacted ids, original-id map.

    ``id_map[m]`` is the original id of compacted node m+1.  ``warnings``
    records skipped lines (lenient mode only).
    """

    n: int
    events: EventColumns
    id_map: tuple[int, ...]
    warnings: tuple[str, ...]


def parse_events(lines, strict: bool = True, t_max: float | None = None) -> ParsedEvents:
    """Parse `src dst delta timestamp` lines into events sorted by timestamp.

    ``lines`` is any iterable of text lines (an open file works).  Blank
    and ``%``-comment lines are skipped.  A malformed line always raises
    :class:`EventParseError` with its line number; a delta outside
    {+1, -1} raises in strict mode and is skipped with a warning
    otherwise.  With ``t_max`` set, events after it are dropped before id
    compaction, so node count and ids reflect only the kept window.
    """
    lines = list(lines)
    text = _one_text(lines)
    if text is None:
        return _parse_lines(lines, strict, t_max)
    del lines                   # the text holds the same lines, in less memory
    try:
        return _parse_text(text, strict, t_max)
    except _NotSure:
        return _parse_lines(text.split("\n"), strict, t_max)


def _one_text(lines: list) -> str | None:
    """``lines`` as one text, line m of it being ``lines[m]``; None if an element is not one line."""
    try:
        text = "".join(lines)
    except TypeError:
        return None
    if "\n" not in text:
        return "\n".join(lines)
    ended = len(lines) - (not lines[-1].endswith("\n"))
    if text.count("\n") == ended and all(line.endswith("\n") for line in lines[:-1]):
        return text
    return None


def _parse_text(text: str, strict: bool, t_max) -> ParsedEvents:
    """The array parser.  Raises :class:`_NotSure` wherever ``_parse_lines`` could differ."""
    raw = _plain_bytes(text)
    if raw is None:
        raise _NotSure
    (src, dst, delta, timestamp), line = _fields(
        raw, (np.int64, np.int64, np.int64, np.float64), comment=ord("%"))
    if (src < 1).any() or (dst < 1).any() \
            or not (np.isfinite(timestamp) & (timestamp >= 0)).all():
        raise _NotSure
    keep = (delta == 1) | (delta == -1)
    warnings = ()
    if not keep.all():
        if strict:
            raise _NotSure
        warnings = tuple(f"line {number + 1}: delta {value} out of range, skipped"
                         for number, value in zip(line[~keep].tolist(), delta[~keep].tolist()))
    if t_max is not None:
        keep &= ~(timestamp > t_max)
    order = np.flatnonzero(keep)
    order = order[np.argsort(timestamp[order], kind="stable")]
    original, compact = np.unique(np.concatenate((src[order], dst[order])),
                                  return_inverse=True)
    src, dst = compact.reshape(2, -1).astype(np.int64) + 1
    return ParsedEvents(len(original), EventColumns(src, dst, delta[order], timestamp[order]),
                        tuple(original.tolist()), warnings)


def _parse_lines(lines, strict: bool, t_max) -> ParsedEvents:
    """The per-line parser: reference for the array parser, and its error reporter."""
    raw: list[tuple[int, int, int, float]] = []
    warnings: list[str] = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if len(parts) != 4:
            raise EventParseError(
                f"expected `src dst delta timestamp`, got {len(parts)} fields",
                line_number=number)
        try:
            src = int(parts[0])
            dst = int(parts[1])
            delta = int(parts[2])
            timestamp = float(parts[3])
        except ValueError:
            raise EventParseError(
                f"non-numeric field in {text!r}", line_number=number) from None
        if src < 1 or dst < 1:
            raise EventParseError(
                f"node ids must be positive, got {src} {dst}", line_number=number)
        if not np.isfinite(timestamp) or timestamp < 0:
            raise EventParseError(
                f"timestamp must be finite and >= 0, got {parts[3]}",
                line_number=number)
        if delta not in (1, -1):
            if strict:
                raise EventParseError("delta out of range", line_number=number)
            warnings.append(f"line {number}: delta {delta} out of range, skipped")
            continue
        if t_max is not None and timestamp > t_max:
            continue
        raw.append((src, dst, delta, timestamp))

    raw.sort(key=lambda item: item[3])  # stable: file order survives ties
    ids = sorted({item[0] for item in raw} | {item[1] for item in raw})
    compact = {original: m + 1 for m, original in enumerate(ids)}
    events = _columns([(compact[src], compact[dst], delta, timestamp)
                       for src, dst, delta, timestamp in raw])
    return ParsedEvents(len(ids), events, tuple(ids), tuple(warnings))


def sample_grid(start: float, step: float, count: int, unit: float = 1.0) -> np.ndarray:
    """Arithmetic progression start, start+step, ..., with `count` points, times `unit`.

    `unit` converts the grid to seconds, the unit of event timestamps.
    """
    spec = f"grid {start!r},{step!r},{count!r}"
    if not (math.isfinite(start) and math.isfinite(step)):
        raise InvalidInputError(f"{spec}: start and step must be finite")
    if step <= 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    with np.errstate(over="ignore"):
        grid = (start + step * np.arange(count, dtype=float)) * unit
    if not np.isfinite(grid).all():
        raise InvalidInputError(f"{spec}: a point overflows"
                                + ("" if unit == 1.0 else " in seconds"))
    return grid


def build_snapshots(events, sample_instants, n: int | None = None,
                    initial=None, policy: str = "strict",
                    instant_scale: float = 1.0) -> tuple[DiscreteTemporalNetwork, int]:
    """Apply events in their given order and sample the running adjacency.

    ``events`` is :class:`EventColumns` or any iterable of
    :class:`EdgeEvent`, normally in timestamp order.  Snapshot k holds
    the adjacency after every event before the first one timestamped
    after sample_instants[k-1].  The running matrix starts from
    ``initial`` (a dense or sparse n-by-n count matrix in compacted node
    order) or empty.  A decrement that would push an entry below zero is
    an error under ``policy="strict"`` and pins the entry at 0 under
    ``"clamp"``.  Returns the network and the number of clamped events.

    ``instant_scale`` converts stored instants to a coarser unit: with
    events timestamped in seconds and a scale of 86400 the network's
    instants come out in days, ready for per-day decay rates.
    """
    if policy not in ("strict", "clamp"):
        raise InvalidInputError(f"unknown policy {policy!r}")
    if instant_scale <= 0:
        raise InvalidInputError(f"instant_scale must be positive, got {instant_scale}")
    instants = np.asarray(sample_instants, dtype=float)
    if instants.ndim != 1 or instants.size == 0:
        raise InvalidInputError("sample_instants must be a non-empty 1-d sequence")
    if not np.isfinite(instants).all():
        raise InvalidInputError("sample_instants must be finite")
    if instants.size > 1 and not (np.diff(instants) > 0).all():
        raise InvalidInputError("sample_instants must be strictly increasing")
    events = EventColumns.of(events)
    if n is None:
        n = int(max(events.src.max(), events.dst.max())) if len(events) else 0
        if initial is not None:
            n = max(n, np.asarray(initial.shape)[0])
    if n < 1:
        raise InvalidInputError("no nodes: supply events, an initial matrix, or n")
    baseline, seed_keys, seed_weights = None, np.zeros(0, dtype=np.int64), np.zeros(0)
    if initial is not None:
        baseline, seed_keys, seed_weights = _seed(initial, n)

    # event i is applied by t_k unless some event up to i lies after t_k (NaN never does)
    latest = np.maximum.accumulate(
        np.where(np.isnan(events.timestamp), -np.inf, events.timestamp))
    applied = np.searchsorted(latest, instants, side="right")
    last = int(applied[-1])
    src, dst = events.src[:last], events.dst[:last]
    outside = np.flatnonzero((src < 1) | (src > n) | (dst < 1) | (dst > n))
    stop = int(outside[0]) if len(outside) else last
    key, order, state, clamped = _replay(
        (src[:stop] - 1) * n + (dst[:stop] - 1), events.delta[:stop], seed_keys, seed_weights)
    if policy == "strict" and clamped.any():
        at = int(order[clamped].min())
        event = events[at]
        raise ConsistencyError(
            f"event {at + 1} ({event.src} -> {event.dst} at "
            f"timestamp {event.timestamp:g}): decrement below zero")
    if stop < last:
        raise InvalidInputError(f"event {stop + 1} references node outside 1..{n}")

    # a row is an edge's state from its own event up to the edge's next one
    following = np.append(order[1:], last)
    following[np.flatnonzero(np.diff(key) != 0)] = last
    snapshots = []
    for count in applied:
        current = (order < count) & (following >= count)
        values = state[current]
        kept = values != 0
        entries = key[current][kept]
        snapshots.append(_sorted_to_csr(entries // n, entries % n, values[kept], n))

    network = DiscreteTemporalNetwork(
        n=n, instants=instants / instant_scale, snapshots=tuple(snapshots),
        initial_adjacency=baseline)
    return network, int(np.count_nonzero(clamped))


def _seed(initial, n):
    """``initial`` as CSR, and its nonzero entries as sorted edge keys i*n + j and weights.

    Of repeated coordinates the last nonzero one counts.
    """
    first = sparse.coo_array(initial)
    if first.shape != (n, n):
        raise InvalidInputError(
            f"initial adjacency is {first.shape}, expected {(n, n)}")
    bad = np.flatnonzero(~np.isfinite(first.data) | (first.data < 0))
    if len(bad):
        at = bad[0]
        raise InvalidInputError(f"initial adjacency entry ({first.row[at] + 1}, "
                                f"{first.col[at] + 1}) is {first.data[at]}")
    nonzero = first.data != 0
    keys = first.row[nonzero].astype(np.int64) * n + first.col[nonzero]
    weights = first.data[nonzero].astype(float)
    order = np.argsort(keys, kind="stable")
    keys, weights = keys[order], weights[order]
    last = np.diff(keys, append=keys[-1:] + 1) != 0
    return sparse.csr_array(first), keys[last], weights[last]


def _replay(keys, deltas, seed_keys, seed_weights):
    """Every edge's count after each of its events, from cumulative sums.

    ``keys`` and ``deltas`` are the events in replay order; the seeds are
    distinct sorted keys with their starting counts.  Returns rows sorted
    by (key, replay order), a seed row (order -1) leading its edge: key,
    order, count after the row, and whether the row's event clamped, that
    is met a count it would have pushed below zero.
    """
    key = np.concatenate([seed_keys, keys])
    order = np.concatenate([np.full(len(seed_keys), -1), np.arange(len(keys))])
    step = np.concatenate([np.zeros(len(seed_keys), dtype=np.int64), deltas])
    rows = np.argsort(key, kind="stable")
    key, order, step = key[rows], order[rows], step[rows]
    starts = np.diff(key, prepend=-1) != 0
    head = np.flatnonzero(starts)
    edge = np.cumsum(starts) - 1
    weight = np.zeros(len(head))
    weight[order[head] < 0] = seed_weights

    total = np.cumsum(step)
    walk = total - (total - step)[head][edge]       # the edge's deltas summed so far
    span = 2 * int(np.abs(step).sum()) + 1          # exceeds max(walk) - min(walk)
    low = np.minimum.accumulate(walk - edge * span) + edge * span   # running min per edge
    start = weight[edge]
    floor = np.minimum(0.0, start + low)            # min(0, min_{j<=k} S_j)
    state = start + walk - floor
    below = np.append(0.0, floor[:-1])
    below[head] = 0.0
    clamped = floor < below

    # start + walk is exact for an integer start; any other start is summed
    # event by event, as a running count would be
    inexact = np.flatnonzero((weight != np.floor(weight)) | (weight >= 2.0**52))
    bounds = np.append(head, len(key))
    for h in inexact.tolist():
        value = float(weight[h])
        for row in range(bounds[h] + 1, bounds[h + 1]):
            value += int(step[row])
            clamped[row] = value < 0
            if clamped[row]:
                value = 0.0
            state[row] = value
    return key, order, state, clamped


@dataclass(frozen=True)
class IngestSummary:
    """Event-stream statistics for one sampled window.

    ``adds``/``removes`` count raw events; ``distinct_added`` and
    ``distinct_removed`` count distinct directed edges touched by at
    least one such event.  Published interaction counts are ambiguous
    between the two readings, so both are kept.
    """

    n: int
    events: int
    adds: int
    removes: int
    distinct_added: int
    distinct_removed: int
    warnings: int

    def as_dict(self) -> dict:
        return {"n": self.n, "events": self.events,
                "adds": self.adds, "removes": self.removes,
                "distinct_added": self.distinct_added,
                "distinct_removed": self.distinct_removed,
                "warnings": self.warnings}


def summarize(parsed: ParsedEvents, clamped: int = 0) -> IngestSummary:
    events = EventColumns.of(parsed.events)
    width = int(events.dst.max()) + 1 if len(events) else 1
    pairs = events.src * width + events.dst         # one key per directed edge
    added = events.delta == 1
    adds = int(np.count_nonzero(added))
    return IngestSummary(
        n=parsed.n, events=len(events), adds=adds, removes=len(events) - adds,
        distinct_added=_distinct(pairs[added]),
        distinct_removed=_distinct(pairs[events.delta == -1]),
        warnings=len(parsed.warnings) + clamped)


def _distinct(values: np.ndarray) -> int:
    """How many different values.  A sort: ``np.unique`` took about 30 times longer under numpy 2.4."""
    values = np.sort(values)
    return int(np.count_nonzero(values[1:] != values[:-1])) + (len(values) > 0)
