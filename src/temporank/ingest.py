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

Events are held as columns (:class:`EventColumns`).  The parser skips
the comment lines that lead the stream, blanks any later one, and reads
the rest with numpy's text reader, as network files are read, then sorts
the columns stably by timestamp and compacts ids with ``np.unique``.
Whenever it cannot vouch for its result (a character other than
printable ASCII, tabs and newlines; a line without four fields; a token
numpy does not read, such as a `_` not between two digits or an id
beyond int64; a warning from the reader; a value that fails a check),
the per-line parser reads the lines again, so both give the same events
or the same line-numbered :class:`EventParseError`.  A file, or an open
file, is read once and takes the same route as a network file.
The replay sorts the events by edge and takes cumulative sums of each
edge's deltas: under ``clamp`` an edge's count is the reflection
x_k = S_k - min(0, min_{j<=k} S_j) of its running sum S (Lindley's
recursion), and snapshot k holds each edge's last count at or before t_k.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
import re
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConsistencyError, EventParseError, InvalidInputError, read_bytes
from .graph import (DiscreteTemporalNetwork, _as_csr, _check_points, _coerced, _entry_keys,
                    _node_count, _piece, _stacked)
from .netfile import _NotSure, _fields, _read

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


def parse_events(source, strict: bool = True, t_max: float | None = None) -> ParsedEvents:
    """Parse `src dst delta timestamp` lines into events sorted by timestamp.

    ``source`` is a path, an open file or any iterable of text lines.  An
    object with ``read`` (an open file) is read once and parsed as the file
    at a path is, its lines ending at \\n, \\r\\n and \\r.  Blank
    and ``%``-comment lines are skipped.  A malformed line always raises
    :class:`EventParseError` with its line number; a delta outside
    {+1, -1} raises in strict mode and is skipped with a warning
    otherwise.  With ``t_max`` set, events after it are dropped before id
    compaction, so node count and ids reflect only the kept window.
    """
    fast = partial(_parse_text, strict=strict, t_max=t_max)
    slow = partial(_parse_lines, strict=strict, t_max=t_max)
    if isinstance(source, (str, os.PathLike)):
        return _read(read_bytes(source, "event file"), fast, slow, EventParseError)
    if hasattr(source, "read"):
        return _read(source.read(), fast, slow, EventParseError)
    lines = list(source)
    text = _one_text(lines)
    if text is None or "\r" in text:          # given lines end at \n only
        return slow(lines)
    del lines                   # the text holds the same lines, in less memory
    return _read(text, fast, slow, EventParseError)


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


#: blank and comment lines, as they lead a stream
_LEADING_COMMENTS = re.compile(rb"(?:[ \t]*(?:%[^\n]*)?\n)*")
_COMMENT_LINE = re.compile(rb"(?m)^[ \t]*%.*")


def _parse_text(raw: bytes, strict: bool, t_max) -> ParsedEvents:
    """The array parser.  Raises :class:`_NotSure` wherever ``_parse_lines`` could differ."""
    start = _LEADING_COMMENTS.match(raw).end()       # the rows start after these lines
    if raw.find(b"%", start) >= 0:
        raw, start = _COMMENT_LINE.sub(b"", raw), 0   # later comment lines go blank
    src, dst, delta, timestamp = _fields(raw, "i8,i8,i8,f8", start)
    if (src < 1).any() or (dst < 1).any() \
            or not (np.isfinite(timestamp) & (timestamp >= 0)).all():
        raise _NotSure
    keep = (delta == 1) | (delta == -1)
    warnings = ()
    if not keep.all():
        if strict:
            raise _NotSure
        chars = np.frombuffer(raw, dtype=np.uint8, offset=start)
        newlines, printed = np.flatnonzero(chars == ord("\n")), np.flatnonzero(chars > ord(" "))
        line = np.unique(np.searchsorted(newlines, printed))    # each row's 0-based line
        line += raw.count(b"\n", 0, start)                     # in the whole stream
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
    if not all(isinstance(value, numbers.Real) and math.isfinite(value)
               for value in (start, step)):
        raise InvalidInputError(f"{spec}: start and step must be finite")
    if step <= 0:
        raise InvalidInputError(f"step must be positive, got {step}")
    if not (isinstance(unit, numbers.Real) and 0 < unit < math.inf):
        raise InvalidInputError(f"unit must be positive and finite, got {unit!r}")
    count = _coerced(f"count must be an integer, got {count!r}", operator.index, count)
    if count < 1:
        raise InvalidInputError(f"count must be >= 1, got {count}")
    _check_points(count, spec)
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
    order, repeated coordinates summed, as the network's ``initial_adjacency``
    holds it) or empty.  A decrement that would push an entry below zero is
    an error under ``policy="strict"`` and pins the entry at 0 under
    ``"clamp"``.  Returns the network and the number of clamped events.

    ``instant_scale`` converts stored instants to a coarser unit: with
    events timestamped in seconds and a scale of 86400 the network's
    instants come out in days, ready for per-day decay rates.

    Each sampled block, and the ``initial`` one, is made as a CSR piece from
    its sorted edge keys, holding no row array, and the pieces are stacked
    once into the network's record of entries.
    """
    if policy not in ("strict", "clamp"):
        raise InvalidInputError(f"unknown policy {policy!r}")
    if not (isinstance(instant_scale, numbers.Real) and 0 < instant_scale < math.inf):
        raise InvalidInputError(
            f"instant_scale must be positive and finite, got {instant_scale!r}")
    instants = _coerced("sample_instants must be a non-empty 1-d sequence",
                        np.asarray, sample_instants, float)
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
    else:
        n = _node_count(n)
    if n < 1:
        raise InvalidInputError("no nodes: supply events, an initial matrix, or n")
    seed_keys, seed_weights = np.zeros(0, dtype=np.int64), np.zeros(0)
    if initial is not None:
        seed_keys, seed_weights = _seed(initial, n)

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
    blocks = []
    for count in applied:
        current = (order < count) & (following >= count)
        values = state[current]
        kept = values != 0
        blocks.append(_piece(n, key[current][kept], values[kept]))
    if initial is not None:
        blocks.append(_piece(n, seed_keys, seed_weights))

    network = DiscreteTemporalNetwork._of_entries(
        n, instants / instant_scale, _stacked(n, blocks), len(applied))
    return network, int(np.count_nonzero(clamped))


def _seed(initial, n):
    """The nonzero entries of ``initial`` as sorted edge keys i*n + j and weights, read from
    its canonical CSR, so repeated coordinates are summed."""
    from scipy import sparse
    first = sparse.coo_array(initial)
    if first.shape != (n, n):
        raise InvalidInputError(
            f"initial adjacency is {first.shape}, expected {(n, n)}")
    bad = np.flatnonzero(~np.isfinite(first.data) | (first.data < 0))
    if len(bad):
        at = bad[0]
        raise InvalidInputError(f"initial adjacency entry ({first.row[at] + 1}, "
                                f"{first.col[at] + 1}) is {first.data[at]}")
    matrix = _as_csr(first)
    keys = _entry_keys(n, matrix.indices, matrix.indptr[None])
    nonzero = matrix.data != 0
    return keys[nonzero], matrix.data[nonzero]


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
        return asdict(self)


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
