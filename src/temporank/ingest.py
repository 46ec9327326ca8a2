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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConsistencyError, EventParseError, InvalidInputError
from .graph import DiscreteTemporalNetwork, _entries_to_csr

__all__ = [
    "EdgeEvent", "ParsedEvents", "IngestSummary",
    "parse_events", "build_snapshots", "sample_grid", "summarize",
]


@dataclass(frozen=True, slots=True)
class EdgeEvent:
    """One edge change: ids are compacted 1-based, delta is +1 or -1."""

    src: int
    dst: int
    delta: int
    timestamp: float


@dataclass(frozen=True)
class ParsedEvents:
    """Event list sorted by timestamp, compacted ids, original-id map.

    ``id_map[m]`` is the original id of compacted node m+1.  ``warnings``
    records skipped lines (lenient mode only).
    """

    n: int
    events: tuple[EdgeEvent, ...]
    id_map: tuple[int, ...]
    warnings: tuple[str, ...]


def parse_events(lines, strict: bool = True, t_max: float | None = None) -> ParsedEvents:
    """Parse `src dst delta timestamp` lines into a sorted event list.

    ``lines`` is any iterable of text lines (an open file works).  Blank
    and ``%``-comment lines are skipped.  A malformed line always raises
    :class:`EventParseError` with its line number; a delta outside
    {+1, -1} raises in strict mode and is skipped with a warning
    otherwise.  With ``t_max`` set, events after it are dropped before id
    compaction, so node count and ids reflect only the kept window.
    """
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
    events = tuple(EdgeEvent(compact[src], compact[dst], delta, timestamp)
                   for src, dst, delta, timestamp in raw)
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
    """Apply events in timestamp order and sample the running adjacency.

    Snapshot k holds the adjacency after every event with
    timestamp <= sample_instants[k-1].  The running matrix starts from
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
    if instants.size > 1 and not (np.diff(instants) > 0).all():
        raise InvalidInputError("sample_instants must be strictly increasing")
    events = list(events)
    if n is None:
        n = max((max(e.src, e.dst) for e in events), default=0)
        if initial is not None:
            n = max(n, np.asarray(initial.shape)[0])
    if n < 1:
        raise InvalidInputError("no nodes: supply events, an initial matrix, or n")

    running: dict[tuple[int, int], float] = {}
    baseline = None
    if initial is not None:
        first = sparse.coo_array(initial)
        if first.shape != (n, n):
            raise InvalidInputError(
                f"initial adjacency is {first.shape}, expected {(n, n)}")
        baseline = sparse.csr_array(first)
        for i, j, w in zip(first.row, first.col, first.data):
            if not np.isfinite(w) or w < 0:
                raise InvalidInputError(
                    f"initial adjacency entry ({i + 1}, {j + 1}) is {w}")
            if w != 0:
                running[(int(i), int(j))] = float(w)

    clamped = 0
    snapshots = []
    cursor = 0
    for t_k in instants:
        while cursor < len(events):
            event = events[cursor]
            if event.timestamp > t_k:
                break
            if not (1 <= event.src <= n and 1 <= event.dst <= n):
                raise InvalidInputError(
                    f"event {cursor + 1} references node outside 1..{n}")
            key = (event.src - 1, event.dst - 1)
            value = running.get(key, 0.0) + event.delta
            if value < 0:
                if policy == "strict":
                    raise ConsistencyError(
                        f"event {cursor + 1} ({event.src} -> {event.dst} at "
                        f"timestamp {event.timestamp:g}): decrement below zero")
                clamped += 1
                value = 0.0
            if value == 0.0:
                running.pop(key, None)
            else:
                running[key] = value
            cursor += 1
        snapshots.append(_entries_to_csr(running, n))

    network = DiscreteTemporalNetwork(
        n=n, instants=instants / instant_scale, snapshots=tuple(snapshots),
        initial_adjacency=baseline)
    return network, clamped


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
    adds = sum(1 for e in parsed.events if e.delta == 1)
    removes = len(parsed.events) - adds
    added_edges = {(e.src, e.dst) for e in parsed.events if e.delta == 1}
    removed_edges = {(e.src, e.dst) for e in parsed.events if e.delta == -1}
    return IngestSummary(
        n=parsed.n, events=len(parsed.events), adds=adds, removes=removes,
        distinct_added=len(added_edges), distinct_removed=len(removed_edges),
        warnings=len(parsed.warnings) + clamped)
