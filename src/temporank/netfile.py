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

Files are UTF-8.  Keyword and comment lines go through the per-line
handlers; the triples between them are parsed a block at a time with
whole-array operations.  Whenever that block parser is not sure of its
result (a check fails, or the text holds anything but printable ASCII,
tabs and newlines), the per-line parser reads the whole input again, so
both give the same network or the same line-numbered error.  The
per-line parser also reads iterables of lines.
"""

from __future__ import annotations

import math
import re
from itertools import compress
from pathlib import Path

import numpy as np

from . import timefuncs
from .errors import NetworkFormatError, TemporankError, not_utf8
from .graph import (ContinuousTemporalNetwork, DiscreteTemporalNetwork, _entries_to_csr,
                    _sorted_to_csr, validate)

__all__ = ["load_network", "loads_network", "save_network", "dumps_network"]


def load_network(source):
    """Parse a network description from a path or an iterable of lines."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError:
                raise not_utf8(source, NetworkFormatError) from None
        return loads_network(text)
    return _parse(source)


def loads_network(text: str):
    """Parse a network description from text as :func:`load_network` parses a file,
    whose lines end at \\n, \\r\\n and \\r only; a block at a time if it can."""
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    raw = _plain_bytes("\n" + text)
    if raw is not None:
        try:
            return _parse_blocks(raw)
        except _NotSure:
            pass
    return _parse(text.split("\n"))


class _Parser:
    def __init__(self):
        self.n = None
        self.symmetric = False
        self.interval = None
        self.edges = {}
        self.blocks = []            # (instant, entries) in file order
        self.initial = None         # entries of the `initial` block
        self.current = None         # entries the next bare triple goes into
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
    """The per-line parser: reference for the block parser, and its error reporter."""
    p = _Parser()
    for p.line_number, line in enumerate(lines, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            _parse_line(p, text)
    if p.initial is not None:
        p.initial = _entries_to_csr(p.initial, p.n)
    p.blocks = [(t, _entries_to_csr(entries, p.n)) for t, entries in p.blocks]
    return _finish(p)


#: a comment line, or a line opening with a keyword, each after its newline
_KEYWORD_LINE = re.compile(
    rb"\n[ \t]*(?:#|(nodes|symmetric|interval|edge|initial|instant)(?![^ \t\n])).*")
#: the characters the block parser reads: tab, newline and printable ASCII
_PLAIN = bytes([ord("\t"), ord("\n"), *range(ord(" "), ord("~") + 1)])
#: the block parser's node count limit, so that i*n + j fits in int64
_MAX_BLOCK_NODES = 2**31
_NO_TRIPLES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
#: _fields turns at most this many lines of text into tokens at a time
_FIELD_LINES = 2**15


class _NotSure(Exception):
    """The block parser cannot vouch for its result."""


def _plain_bytes(text: str) -> bytes | None:
    """``text`` as bytes if it holds only tabs, newlines and printable ASCII, else None."""
    if text.isascii():
        raw = text.encode("ascii")
        if not raw.translate(None, _PLAIN):
            return raw
    return None


def _parse_blocks(raw: bytes):
    """The block parser: keyword lines one by one, the triples between them as arrays.

    ``raw`` is the text after a newline.  Raises :class:`_NotSure` wherever
    the per-line parser could read it differently; any `NetworkFormatError`
    comes from a keyword line, with the parser state the per-line parser
    would have there.
    """
    p = _Parser()
    pieces = []                 # (rows, cols, weights) of the open block
    start = 1                   # offset of the first line not yet parsed
    p.line_number = 1           # and its line number
    for match in _KEYWORD_LINE.finditer(raw):
        _add_body(p, pieces, raw[start:match.start() + 1])
        keyword = match.group(1)
        if keyword in (b"initial", b"instant"):
            _close_block(p, pieces)
        elif keyword is not None and p.current is not None:
            raise _NotSure      # a header amid blocks: never in a valid discrete file
        if keyword is not None:
            _parse_line(p, match.group().decode("ascii").strip())
        start = match.end() + 1
        p.line_number += 1
    _add_body(p, pieces, raw[start:])
    _close_block(p, pieces)
    return _finish(p)


def _add_body(p: _Parser, pieces: list, body: bytes):
    """Parse the `i j w` lines ``body`` between two keyword or comment lines."""
    if body and not body.isspace():
        if p.current is None or p.n >= _MAX_BLOCK_NODES:
            raise _NotSure
        (rows, cols, weights), _ = _fields(body, (np.int64, np.int64, np.float64))
        if ((rows < 1) | (rows > p.n) | (cols < 1) | (cols > p.n)).any() \
                or not np.isfinite(weights).all() or (weights < 0).any():
            raise _NotSure
        pieces.append((rows - 1, cols - 1, weights))    # 0-based
    p.line_number += body.count(b"\n")


def _fields(body: bytes, dtypes, comment: int | None = None):
    """The whitespace-separated fields of ``body``, one column per dtype, and each line's number.

    ``body`` holds only tabs, newlines and printable ASCII.  Lines whose
    first token starts with the byte ``comment`` are left out; every other
    line must be blank or hold exactly len(dtypes) tokens, which numpy
    converts to their column's dtype, or :class:`_NotSure` is raised.
    Returns the columns in text order and, per line read, its 0-based line
    number.  Whole-array work, except ``bytes.split`` and the conversion,
    which take _FIELD_LINES lines at a time so that only that many lines'
    tokens exist as ``bytes`` objects at once.
    """
    chars = np.frombuffer(body, dtype=np.uint8)
    newlines = np.flatnonzero(chars == ord("\n"))
    bounds = [0, *(newlines[_FIELD_LINES - 1::_FIELD_LINES] + 1).tolist(), len(body)]
    k, runs = len(dtypes), []
    for start, end in zip(bounds[:-1], bounds[1:]):
        gap = np.concatenate(([True], chars[start:end] <= ord(" "), [True]))
        starts = start + np.flatnonzero(gap[1:] != gap[:-1])[0::2]     # token starts
        line = np.searchsorted(newlines, starts)
        tokens = body[start:end].split()
        if comment is not None:
            opens = chars[starts] == comment
            if opens.any():
                first = np.concatenate(([True], line[1:] != line[:-1]))
                keep = ~np.isin(line, line[opens & first])
                tokens = list(compress(tokens, keep.tolist()))
                line = line[keep]
        if (len(line) % k or (line[0::k] != line[k - 1::k]).any()
                or (np.diff(line[0::k]) <= 0).any()):
            raise _NotSure      # some line does not hold exactly k tokens
        try:
            runs.append([np.array(tokens[m::k], dtype=dtype) for m, dtype in enumerate(dtypes)]
                        + [line[0::k]])
        except (ValueError, OverflowError):
            raise _NotSure from None
    *columns, lines = (np.concatenate(part) for part in zip(*runs))
    return columns, lines


def _close_block(p: _Parser, pieces: list):
    """Store the open block as a CSR matrix; no entry may repeat."""
    if p.current is None:
        return
    rows, cols, weights = (np.concatenate(part) for part in zip(*pieces or [_NO_TRIPLES]))
    key = rows * p.n + cols
    if not (np.diff(key) > 0).all():
        order = np.argsort(key)
        key, rows, cols, weights = key[order], rows[order], cols[order], weights[order]
        if not (np.diff(key) > 0).all():
            raise _NotSure      # a duplicate entry
    matrix = _sorted_to_csr(rows, cols, weights, p.n)
    if p.current is p.initial:
        p.initial = matrix
    else:
        p.blocks[-1] = (p.blocks[-1][0], matrix)
    p.current = None
    pieces.clear()


def _parse_line(p: _Parser, text: str):
    """One stripped line that is neither blank nor a comment."""
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
            snapshots=[matrix for _, matrix in p.blocks],
            initial_adjacency=p.initial)
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
        rows, cols, functions = network.edge_order
        for i, j, fn in zip(rows.tolist(), cols.tolist(), functions):
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
    """`i j w` lines of the nonzero entries, from a canonical copy of ``matrix``."""
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    rows = np.repeat(np.arange(1, matrix.shape[0] + 1), np.diff(matrix.indptr))
    return [f"{i} {j + 1} {w!r}"
            for i, j, w in zip(rows.tolist(), matrix.indices.tolist(), matrix.data.tolist())
            if w != 0]
