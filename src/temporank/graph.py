"""Temporal network data model for discrete and continuous time scales.

Constructors coerce their inputs but deliberately do not reject bad data;
:func:`validate` reports every invariant violation so that files can be
diagnosed rather than bounced at the first problem.  Computational
operations assume a network that validates cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import InvalidInputError
from .timefuncs import TimeFunction

__all__ = ["DiscreteTemporalNetwork", "ContinuousTemporalNetwork", "validate"]


def _entries_to_csr(entries: dict, n: int) -> sparse.csr_array:
    """n x n CSR matrix from a {(i, j): weight} mapping of 0-based pairs."""
    items = sorted(entries.items())
    return _sorted_to_csr(np.array([key[0] for key, _ in items], dtype=np.int64),
                          np.array([key[1] for key, _ in items], dtype=np.int64),
                          np.array([value for _, value in items], dtype=float), n)


def _sorted_to_csr(rows, cols, data, n: int) -> sparse.csr_array:
    """n x n CSR matrix from 0-based int64 entries sorted by (row, col), none repeated."""
    if not len(data):
        return sparse.csr_array((n, n))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sparse.csr_array((data, cols, indptr), shape=(n, n))


def _as_csr(matrix) -> sparse.csr_array:
    if sparse.issparse(matrix):
        return sparse.csr_array(matrix)
    return sparse.csr_array(np.asarray(matrix, dtype=float))


@dataclass(frozen=True)
class DiscreteTemporalNetwork:
    """A fixed node set observed at strictly increasing instants.

    ``snapshots[k]`` holds the instantaneous nonnegative adjacency at
    ``instants[k]``; an optional ``initial_adjacency`` records the day-zero
    baseline an event stream was replayed from.
    """

    n: int
    instants: np.ndarray
    snapshots: tuple
    initial_adjacency: sparse.csr_array | None = None

    def __post_init__(self):
        object.__setattr__(self, "instants",
                           np.asarray(self.instants, dtype=float))
        object.__setattr__(self, "snapshots",
                           tuple(_as_csr(a) for a in self.snapshots))
        if self.initial_adjacency is not None:
            object.__setattr__(self, "initial_adjacency",
                               _as_csr(self.initial_adjacency))

    @property
    def instant_count(self) -> int:
        return len(self.instants)

    def snapshot_at(self, k: int) -> sparse.csr_array:
        """Adjacency at 1-based instant index ``k``."""
        if not 1 <= k <= len(self.snapshots):
            raise InvalidInputError(
                f"instant index {k} outside 1..{len(self.snapshots)}")
        return self.snapshots[k - 1]


class EdgeOrder(NamedTuple):
    """The edges of a continuous network sorted by (row, col), i.e. in CSR order."""

    rows: np.ndarray
    cols: np.ndarray
    functions: tuple


@dataclass(frozen=True)
class ContinuousTemporalNetwork:
    """A fixed node set whose edge weights are functions of continuous time.

    ``edges`` maps 0-based (i, j) pairs to a :class:`TimeFunction`; with
    ``symmetric=True`` each stored edge is mirrored at construction, so the
    mapping always holds both directions explicitly.
    """

    n: int
    interval: tuple
    edges: dict = field(default_factory=dict)
    symmetric: bool = False

    def __post_init__(self):
        t0, t1 = (float(self.interval[0]), float(self.interval[1]))
        object.__setattr__(self, "interval", (t0, t1))
        mirrored = {}
        for (i, j), fn in self.edges.items():
            if not isinstance(fn, TimeFunction):
                fn = TimeFunction.from_callable(fn) if callable(fn) \
                    else TimeFunction.constant(fn)
            mirrored[(int(i), int(j))] = fn
            if self.symmetric:
                mirrored.setdefault((int(j), int(i)), fn)
        object.__setattr__(self, "edges", mirrored)

    @property
    def t0(self) -> float:
        return self.interval[0]

    @property
    def t1(self) -> float:
        return self.interval[1]

    @cached_property
    def edge_order(self) -> EdgeOrder:
        """The edges as int64 rows and columns and their functions, sorted once."""
        items = sorted(self.edges.items())
        return EdgeOrder(np.array([i for (i, _), _ in items], dtype=np.int64),
                         np.array([j for (_, j), _ in items], dtype=np.int64),
                         tuple(fn for _, fn in items))

    @cached_property
    def edge_labels(self) -> list[str]:
        """1-based names ``edge (i, j)`` of the edges in :attr:`edge_order`."""
        rows, cols, _ = self.edge_order
        return [f"edge ({i + 1}, {j + 1})" for i, j in zip(rows.tolist(), cols.tolist())]

    def edge_csr(self, values) -> sparse.csr_array:
        """n x n CSR matrix holding ``values[e]`` on edge e of :attr:`edge_order`.

        Zero entries are dropped.  ``eliminate_zeros`` compacts the index
        arrays in place, so each matrix gets its own copy of the columns.
        """
        rows, cols, _ = self.edge_order
        matrix = _sorted_to_csr(rows, cols.copy(), np.array(values, dtype=float), self.n)
        matrix.eliminate_zeros()
        return matrix

    def adjacency_at(self, t: float) -> sparse.csr_array:
        """Pointwise evaluation A(t) as a sparse matrix."""
        return self.edge_csr([fn(t) for fn in self.edge_order.functions])


#: number of sample points used for the sampled checks on edge functions
_CONTINUOUS_SAMPLES = 33


def validate(network) -> list[str]:
    """Report every invariant violation; an empty list means the network is ok.

    Continuous edge functions are checked on a sample grid (finiteness and
    nonnegativity cannot be decided exactly for arbitrary evaluators).
    """
    if isinstance(network, DiscreteTemporalNetwork):
        return _validate_discrete(network)
    if isinstance(network, ContinuousTemporalNetwork):
        return _validate_continuous(network)
    raise InvalidInputError(f"not a temporal network: {type(network).__name__}")


def _validate_discrete(net: DiscreteTemporalNetwork) -> list[str]:
    problems = []
    if net.n <= 0:
        problems.append(f"node count must be positive, got {net.n}")
    if len(net.instants) != len(net.snapshots):
        problems.append(
            f"{len(net.instants)} instants but {len(net.snapshots)} snapshots")
    if not np.isfinite(net.instants).all():
        problems.append("instants contain non-finite values")
    if np.any(np.diff(net.instants) <= 0):
        problems.append("instants not strictly increasing")
    matrices = list(net.snapshots)
    if net.initial_adjacency is not None:
        matrices.append(net.initial_adjacency)
    for idx, matrix in enumerate(matrices):
        label = ("initial adjacency" if idx == len(net.snapshots)
                 and net.initial_adjacency is not None else f"snapshot {idx + 1}")
        if matrix.shape != (net.n, net.n):
            problems.append(f"{label}: shape {matrix.shape}, expected ({net.n}, {net.n})")
        if matrix.nnz and not np.isfinite(matrix.data).all():
            problems.append(f"{label}: non-finite weight")
        if matrix.nnz and (matrix.data < 0).any():
            problems.append(f"{label}: negative weight")
    return problems


def _validate_continuous(net: ContinuousTemporalNetwork) -> list[str]:
    problems = []
    if net.n <= 0:
        problems.append(f"node count must be positive, got {net.n}")
    t0, t1 = net.interval
    if not (np.isfinite(t0) and np.isfinite(t1)):
        problems.append("interval endpoints must be finite")
        return problems
    if not t0 < t1:
        problems.append(f"interval [{t0}, {t1}] is empty")
        return problems
    grid = np.linspace(t0, t1, _CONTINUOUS_SAMPLES)
    rows, cols, functions = net.edge_order
    for i, j, fn, label in zip(rows.tolist(), cols.tolist(), functions, net.edge_labels):
        if not (0 <= i < net.n and 0 <= j < net.n):
            problems.append(f"{label} outside node range 1..{net.n}")
            continue
        with np.errstate(all="ignore"):
            values = fn(grid)
        if not np.isfinite(values).all():
            problems.append(f"{label}: non-finite value on sample grid")
        elif (values < 0).any():
            problems.append(f"{label}: negative value on sample grid")
    return problems
