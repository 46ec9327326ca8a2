"""Read and write the plain-text network description format.

Grammar (one construct per line, `#` starts a full-line comment, blank
lines ignored, node indices 1-based on disk):

    nodes <n>               required, before any edge or block
    symmetric               continuous only: mirror every edge
    interval <t0> <t1>      continuous only: the time interval
    edge <i> <j> <expr>     continuous edge; <expr> uses the expression
                            vocabulary, e.g. 0.5*(sin(2*pi*t)+1)
    initial                 discrete only: opens the day-zero block
    instant <t>             discrete only: opens the snapshot block at t
    <i> <j> <w>             entry of the currently open block

A file is continuous (interval + edge lines) or discrete (instant
blocks), never both.  Weights and instants are written with shortest
round-trip precision, so save/load reproduces matrices bit for bit.
Symmetric networks reload with both directions stored explicitly; saving
one back writes the full directed edge list without the `symmetric`
shorthand.
"""

from __future__ import annotations

import math
from pathlib import Path

from . import timefuncs
from .errors import NetworkFormatError, TemporankError
from .graph import (ContinuousTemporalNetwork, DiscreteTemporalNetwork, _entries_to_csr,
                    validate)

__all__ = ["load_network", "loads_network", "save_network", "dumps_network"]


def load_network(source):
    """Parse a network description from a path or an iterable of lines."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return _parse(handle)
    return _parse(source)


def loads_network(text: str):
    return _parse(text.splitlines())


class _Parser:
    def __init__(self):
        self.n = None
        self.symmetric = False
        self.interval = None
        self.edges = {}
        self.blocks = []            # (instant, {(i, j): w}) in file order
        self.initial = None
        self.current = None         # dict the next bare triple goes into
        self.line_number = 0

    def fail(self, message: str):
        raise NetworkFormatError(message, line_number=self.line_number)

    def node_index(self, token: str) -> int:
        try:
            value = int(token)
        except ValueError:
            self.fail(f"node index {token!r} is not an integer")
        if self.n is None:
            self.fail("node index before `nodes` header")
        if not 1 <= value <= self.n:
            self.fail(f"node index {value} outside 1..{self.n}")
        return value - 1

    def number(self, token: str, what: str) -> float:
        try:
            value = float(token)
        except ValueError:
            self.fail(f"{what} {token!r} is not a number")
        if not math.isfinite(value):
            self.fail(f"{what} must be finite, got {token}")
        return value


def _parse(lines):
    p = _Parser()
    for p.line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        keyword = parts[0]
        if keyword == "nodes":
            _parse_nodes(p, parts)
        elif keyword == "symmetric":
            if len(parts) != 1:
                p.fail("`symmetric` takes no arguments")
            p.symmetric = True
        elif keyword == "interval":
            _parse_interval(p, parts)
        elif keyword == "edge":
            _parse_edge(p, text)
        elif keyword == "initial":
            _parse_initial(p, parts)
        elif keyword == "instant":
            _parse_instant(p, parts)
        else:
            _parse_triple(p, parts)
    return _finish(p)


def _parse_nodes(p: _Parser, parts):
    if p.n is not None:
        p.fail("duplicate `nodes` header")
    if len(parts) != 2:
        p.fail("expected `nodes <n>`")
    try:
        p.n = int(parts[1])
    except ValueError:
        p.fail(f"node count {parts[1]!r} is not an integer")
    if p.n < 1:
        p.fail(f"node count must be positive, got {p.n}")


def _parse_interval(p: _Parser, parts):
    if p.interval is not None:
        p.fail("duplicate `interval` line")
    if len(parts) != 3:
        p.fail("expected `interval <t0> <t1>`")
    t0 = p.number(parts[1], "interval start")
    t1 = p.number(parts[2], "interval end")
    if not t0 < t1:
        p.fail(f"interval [{t0:g}, {t1:g}] is empty")
    p.interval = (t0, t1)


def _parse_edge(p: _Parser, text: str):
    if p.blocks or p.initial is not None:
        p.fail("`edge` lines cannot mix with discrete blocks")
    parts = text.split(maxsplit=3)
    if len(parts) != 4:
        p.fail("expected `edge <i> <j> <expr>`")
    i = p.node_index(parts[1])
    j = p.node_index(parts[2])
    if (i, j) in p.edges:
        p.fail(f"duplicate edge ({i + 1}, {j + 1})")
    if p.symmetric and (j, i) in p.edges:
        p.fail(f"edge ({i + 1}, {j + 1}) already implied by "
               f"({j + 1}, {i + 1}) in a symmetric file")
    try:
        p.edges[(i, j)] = timefuncs.parse(parts[3])
    except TemporankError as err:
        p.fail(f"bad edge expression: {err}")


def _parse_initial(p: _Parser, parts):
    if p.edges or p.interval is not None:
        p.fail("discrete blocks cannot mix with continuous constructs")
    if len(parts) != 1:
        p.fail("`initial` takes no arguments")
    if p.initial is not None:
        p.fail("duplicate `initial` block")
    if p.n is None:
        p.fail("`initial` before `nodes` header")
    p.initial = {}
    p.current = p.initial


def _parse_instant(p: _Parser, parts):
    if p.edges or p.interval is not None:
        p.fail("discrete blocks cannot mix with continuous constructs")
    if len(parts) != 2:
        p.fail("expected `instant <t>`")
    if p.n is None:
        p.fail("`instant` before `nodes` header")
    entries = {}
    p.blocks.append((p.number(parts[1], "instant"), entries))
    p.current = entries


def _parse_triple(p: _Parser, parts):
    if p.current is None:
        p.fail(f"unknown construct {parts[0]!r} "
               "(weight triples need an open `instant` or `initial` block)")
    if len(parts) != 3:
        p.fail("expected `<i> <j> <w>`")
    i = p.node_index(parts[0])
    j = p.node_index(parts[1])
    w = p.number(parts[2], "weight")
    if w < 0:
        p.fail(f"weight must be nonnegative, got {w:g}")
    if (i, j) in p.current:
        p.fail(f"duplicate entry ({i + 1}, {j + 1}) in this block")
    p.current[(i, j)] = w


def _finish(p: _Parser):
    if p.n is None:
        raise NetworkFormatError("missing `nodes` header")
    if p.interval is not None or p.edges:
        if p.interval is None:
            raise NetworkFormatError("continuous file is missing `interval`")
        network = ContinuousTemporalNetwork(
            n=p.n, interval=p.interval, edges=p.edges, symmetric=p.symmetric)
    else:
        if p.symmetric:
            raise NetworkFormatError("`symmetric` applies only to edge files")
        if not p.blocks:
            raise NetworkFormatError("file defines neither edges nor instants")
        network = DiscreteTemporalNetwork(
            n=p.n,
            instants=[t for t, _ in p.blocks],
            snapshots=[_entries_to_csr(entries, p.n) for _, entries in p.blocks],
            initial_adjacency=(_entries_to_csr(p.initial, p.n)
                               if p.initial is not None else None))
    problems = validate(network)
    if problems:
        raise NetworkFormatError("; ".join(problems))
    return network


def save_network(network, target):
    """Write a network description to a path or a text file object."""
    text = dumps_network(network)
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        target.write(text)


def dumps_network(network) -> str:
    if isinstance(network, ContinuousTemporalNetwork):
        lines = [f"nodes {network.n}",
                 f"interval {float(network.t0)!r} {float(network.t1)!r}"]
        for (i, j), fn in sorted(network.edges.items()):
            if fn.source is None:
                raise NetworkFormatError(
                    f"edge ({i + 1}, {j + 1}) wraps an opaque callable and "
                    "cannot be written; create it from an expression")
            lines.append(f"edge {i + 1} {j + 1} {fn.source}")
    elif isinstance(network, DiscreteTemporalNetwork):
        lines = [f"nodes {network.n}"]
        if network.initial_adjacency is not None:
            lines.append("initial")
            lines.extend(_matrix_lines(network.initial_adjacency))
        for k, t_k in enumerate(network.instants):
            lines.append(f"instant {float(t_k)!r}")
            lines.extend(_matrix_lines(network.snapshots[k]))
    else:
        raise NetworkFormatError(
            f"not a temporal network: {type(network).__name__}")
    return "\n".join(lines) + "\n"


def _matrix_lines(matrix):
    coo = matrix.tocoo()
    entries = sorted(zip(coo.row, coo.col, coo.data))
    return [f"{i + 1} {j + 1} {float(w)!r}" for i, j, w in entries if w != 0]
