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
handlers; the triples between them are read a block at a time by numpy's
text reader and checked with whole-array operations.  Whenever that block
parser is not sure of its result (a check fails; the text holds anything
but printable ASCII, tabs and newlines; a `_` is not between two digits;
an integer is beyond int64; the reader warns), the per-line parser reads
the whole input again, so both give the same network or the same
line-numbered error.  The per-line parser also reads iterables of lines.
Files are read once, as bytes, as event streams are, and written a block
at a time.  Before numpy's reader, the block parser passes over the bytes
four times, each pass in C: an ASCII test, a search for `\\r` (the line
ends are rewritten only if one is found), a test for characters it does
not read, and one scan for keyword and comment lines, which leaves a
line at once if it opens with a digit.  It counts lines only to number
the error of a keyword line, and checks the triples' ranges by minima
and maxima.  Both parsers make each block of a discrete file a CSR piece
as it closes and stack the pieces once into the one record of entries a
:class:`DiscreteTemporalNetwork` keeps, the block parser after the bytes
are dropped, and the writer reads that record a block at a time, so
neither builds a sparse matrix or loads scipy.  A
network the reader would refuse, of no nodes or no instants, is refused
by the writer before it writes a byte.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import re
import warnings

import numpy as np

from . import timefuncs
from .errors import InvalidInputError, NetworkFormatError, TemporankError, decode, read_bytes
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork, _sorted_entries, _stacked

__all__ = ["load_network", "loads_network", "save_network", "dumps_network"]


def load_network(source):
    """Parse a network description from a path, an open file (text or binary,
    read once and parsed as the file at a path is) or an iterable of lines."""
    # the bytes read go to `_read` alone, which frees them before the blocks are stacked
    if isinstance(source, (str, os.PathLike)):
        return _read(read_bytes(source, "network source"), _parse_blocks, _parse,
                     NetworkFormatError, _finish)
    if hasattr(source, "read"):
        return _read(source.read(), _parse_blocks, _parse, NetworkFormatError, _finish)
    return _parse(source)


def loads_network(text: str):
    """Parse a network description from text as :func:`load_network` parses a file,
    whose lines end at \\n, \\r\\n and \\r only; a block at a time if it can."""
    return _read(text, _parse_blocks, _parse, NetworkFormatError, _finish)


def _read(raw: bytes | str, fast, slow, error: type, finish=None):
    """Parse a file's bytes with ``fast`` if it is sure of them, else its lines with ``slow``.

    Lines end at \\n, \\r\\n and \\r; bytes that are not UTF-8 raise ``error``,
    which places the first bad byte in the bytes as given.  A text that is
    not ASCII goes to ``slow`` as it is.  Given ``finish``, ``fast`` returns
    what ``finish`` completes once the bytes are dropped, so that a caller
    holding no other reference to them has them freed by then.
    """
    if isinstance(raw, str):
        if not raw.isascii():
            return slow(_lines(raw))
        raw = raw.encode("ascii")
    if raw.isascii():
        if b"\r" in raw:
            raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        if not raw.translate(None, _PLAIN):
            try:
                parsed = fast(raw)
            except _NotSure:
                pass
            else:
                del raw
                return parsed if finish is None else finish(parsed)
    return slow(_lines(decode(raw, error)))


def _lines(text: str) -> list:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


class _Parser:
    def __init__(self):
        self.n = None
        self.symmetric = False
        self.interval = None
        self.edges = {}
        self.blocks = []            # (instant, entries) in file order
        self.initial = None         # entries of the `initial` block
        self.current = None         # entries the next bare triple goes into
        self.line_number = None     # of the line being parsed; None: numbered by the caller

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
        p.initial = _sorted_entries(p.n, p.initial)
    p.blocks = [(t, _sorted_entries(p.n, entries)) for t, entries in p.blocks]
    return _finish(p)


#: a comment line, or a line opening with a keyword (group 2); the line is group 1
_KEYWORD = rb"([ \t]*(?:#|(nodes|symmetric|interval|edge|initial|instant)(?![^ \t\n])).*)"
_FIRST_LINE = re.compile(rb"\A" + _KEYWORD)
#: such a line after its newline.  The lookahead passes over a triple's line at its first
#: digit, before the keywords are tried, and finditer runs 2.4 times as fast as without it;
#: it consumes nothing, so a blank line's newline still leaves the next line's to be found
_KEYWORD_LINE = re.compile(rb"\n(?=[^0-9])" + _KEYWORD)
#: the characters the block parser reads: tab, newline and printable ASCII
_PLAIN = bytes([ord("\t"), ord("\n"), *range(ord(" "), ord("~") + 1)])
#: the node count limit, so that i*n + j fits in int64
_MAX_BLOCK_NODES = 2**31
_NO_TRIPLES = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
#: a `_` that Python's int and float do not read as a digit separator
_LONE_UNDERSCORE = re.compile(rb"(?<![0-9])_|_(?![0-9])")


class _NotSure(Exception):
    """The block parser cannot vouch for its result."""


def _parse_blocks(raw: bytes) -> _Parser:
    """The block parser: keyword lines one by one, the triples between them as arrays.

    Returns the parser state for :func:`_finish`, which holds no reference
    to ``raw``.  Raises :class:`_NotSure` wherever the per-line parser could
    read ``raw`` differently; any `NetworkFormatError` comes from a keyword
    line, with the parser state the per-line parser would have there, and
    is given that line's number, counted only then.
    """
    p = _Parser()
    pieces = []                 # (rows, cols, weights) of the open block
    start = 0                   # offset of the first line not yet parsed
    for match in itertools.chain(_FIRST_LINE.finditer(raw), _KEYWORD_LINE.finditer(raw)):
        _add_body(p, pieces, raw[start:match.start(1)])
        keyword = match.group(2)
        if keyword in (b"initial", b"instant"):
            _close_block(p, pieces)
        elif keyword is not None and p.current is not None:
            raise _NotSure      # a header amid blocks: never in a valid discrete file
        if keyword is not None:
            try:
                _parse_line(p, match.group(1).decode("ascii").strip())
            except NetworkFormatError as err:
                raise NetworkFormatError(
                    str(err), line_number=raw.count(b"\n", 0, match.start(1)) + 1) from None
        start = match.end() + 1
    _add_body(p, pieces, raw[start:])
    _close_block(p, pieces)
    return p


def _add_body(p: _Parser, pieces: list, body: bytes):
    """Parse the `i j w` lines ``body`` between two keyword or comment lines."""
    if body and not body.isspace():
        if p.current is None:
            raise _NotSure
        rows, cols, weights = _fields(body, "i8,i8,f8")
        # a NaN weight fails the bounds: min and max carry it through
        if not (1 <= rows.min() and rows.max() <= p.n and 1 <= cols.min()
                and cols.max() <= p.n and 0 <= weights.min() and weights.max() < math.inf):
            raise _NotSure
        rows -= 1               # 0-based, in place
        cols -= 1
        pieces.append((rows, cols, weights))


def _fields(body: bytes, dtype: str, start: int = 0):
    """The whitespace-separated fields of ``body[start:]`` as columns of structured ``dtype``.

    ``body`` holds only tabs, newlines and printable ASCII, and ``start``
    is the offset of a line; the bytes before it are neither read nor
    copied.  numpy's text reader skips blank lines and converts every other
    line, which must hold one token per column.  Python reads a ``_``
    between two digits as a digit separator and numpy none, so those are
    deleted first.  Any other ``_``, a failed conversion or a warning from
    the reader raises :class:`_NotSure`.
    """
    if body.find(b"_", start) >= 0:
        if _LONE_UNDERSCORE.search(body, start):
            raise _NotSure
        body, start = body[start:].replace(b"_", b""), 0
    stream = io.BytesIO(body)
    stream.seek(start)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(stream, dtype=dtype, comments=None, ndmin=1,
                              unpack=True, encoding="ascii")
        except (ValueError, Warning):
            raise _NotSure from None


def _close_block(p: _Parser, pieces: list):
    """Store the open block as the CSR piece (indptr, indices, data) of its entries, sorted
    by (row, col); none may repeat.  Its rows are dropped once the row pointer is found."""
    if p.current is None:
        return
    rows, cols, weights = (np.concatenate(part) for part in zip(*pieces or [_NO_TRIPLES]))
    pieces.clear()
    key = rows * p.n + cols
    if not (np.diff(key) > 0).all():
        order = np.argsort(key)
        key, rows, cols, weights = key[order], rows[order], cols[order], weights[order]
        if not (np.diff(key) > 0).all():
            raise _NotSure      # a duplicate entry
    piece = np.searchsorted(rows, np.arange(p.n + 1)), cols, weights
    if p.current is p.initial:
        p.initial = piece
    else:
        p.blocks[-1] = (p.blocks[-1][0], piece)
    p.current = None


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
    if p.n >= _MAX_BLOCK_NODES:
        p.fail(f"node count must be below 2**31, got {p.n}")


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
    continuous = p.interval is not None or p.edges
    if continuous and p.interval is None:
        raise NetworkFormatError("continuous file is missing `interval`")
    if not continuous and p.symmetric:
        raise NetworkFormatError("`symmetric` applies only to edge files")
    if not continuous and not p.blocks:
        raise NetworkFormatError("file defines neither edges nor instants")
    try:   # the constructor checks the network and names every problem
        if continuous:
            return ContinuousTemporalNetwork(p.n, p.interval, p.edges, p.symmetric)
        instants, blocks = zip(*p.blocks)
        blocks += () if p.initial is None else (p.initial,)
        return DiscreteTemporalNetwork._of_entries(p.n, instants, _stacked(p.n, blocks),
                                                   len(instants))
    except InvalidInputError as err:
        raise NetworkFormatError(str(err)) from None


def save_network(network, target):
    """Write a network description to a path or a text file object, a block at a time."""
    pieces = _pieces(network)
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    else:
        target.writelines(pieces)


def dumps_network(network) -> str:
    return "".join(_pieces(network))


def _pieces(network):
    """The text of ``network``, header first, a block a piece; checked before it returns.

    A network the reader would refuse (no nodes, or no instants) is refused here.
    """
    if isinstance(network, (ContinuousTemporalNetwork, DiscreteTemporalNetwork)) \
            and network.n == 0:
        raise NetworkFormatError("a network of no nodes cannot be written: "
                                 "the format needs a positive node count")
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
        return ["\n".join(lines) + "\n"]
    if isinstance(network, DiscreteTemporalNetwork):
        if not network.instant_count:
            raise NetworkFormatError("a network of no instants cannot be written: "
                                     "the format needs an `instant` block")
        return itertools.chain([f"nodes {network.n}\n"], _blocks(network))
    raise NetworkFormatError(f"not a temporal network: {type(network).__name__}")


def _blocks(network: DiscreteTemporalNetwork):
    """The `initial` block, if any, and then the `instant` blocks of ``network``, read from
    its entry record: `i j w` lines of the nonzero entries, each distinct weight of a block
    formatted once.  Only one block's lines and weight table are held at a time."""
    data, indices, indptr, starts = network._entries
    headers = [f"instant {t!r}" for t in network.instants.tolist()] + ["initial"]
    count = network.instant_count
    labels = [str(i) for i in range(1, network.n + 1)]
    for block in [*range(count, len(starts) - 1), *range(count)]:
        start, end = starts[block], starts[block + 1]
        keep = data[start:end] != 0
        values, index = np.unique(data[start:end][keep], return_inverse=True)
        weights = [repr(w) for w in values.tolist()]
        rows = np.repeat(np.arange(network.n), np.diff(indptr[block]))[keep]
        lines = [f"{labels[i]} {labels[j]} {weights[k]}" for i, j, k in zip(
            rows.tolist(), indices[start:end][keep].tolist(), index.tolist())]
        yield "\n".join([headers[block], *lines]) + "\n"
