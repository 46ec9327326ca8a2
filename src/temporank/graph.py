"""Temporal network data model for discrete and continuous time scales.

Both network types are checked when they are built: an argument that is
not of the documented kind, or a network that breaks an invariant,
raises one :class:`InvalidInputError` naming every problem, so that a
file can be diagnosed rather than bounced at the first one.  No invalid
network exists, and computational operations take every network as valid.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .errors import InvalidInputError
from .timefuncs import TimeFunction

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["DiscreteTemporalNetwork", "ContinuousTemporalNetwork"]


def _piece(n: int, keys: np.ndarray, weights: np.ndarray) -> tuple:
    """The CSR piece (indptr, indices, data) of the n x n matrix holding ``weights`` at the
    sorted, distinct int64 keys i*n + j: key i*n is where row i opens.  The one builder of a
    block's row pointer."""
    return np.searchsorted(keys, np.arange(n + 1) * n), keys % n, weights


def _sorted_entries(n: int, entries: dict):
    """The :func:`_piece` of a {(i, j): weight} mapping of 0-based entries."""
    items = sorted(entries.items())
    return _piece(n, np.array([i * n + j for (i, j), _ in items], dtype=np.int64),
                  np.array([value for _, value in items], dtype=float))


def _stacked(n: int, blocks) -> tuple:
    """The record (data, indices, indptr, starts) of :func:`_edge_entries` of the n x n
    matrices ``blocks``, each a CSR piece (indptr, indices, data) with sorted columns in each
    row, none repeated: their data and indices one after another, and their row pointers
    stacked.  Its indices and row pointers are int64; no block's rows are needed."""
    return (np.concatenate([np.zeros(0), *(data for _, _, data in blocks)]),
            np.concatenate([np.zeros(0, dtype=np.int64), *(cols for _, cols, _ in blocks)]),
            np.array([indptr for indptr, _, _ in blocks], dtype=np.int64).reshape(-1, n + 1),
            np.cumsum([0] + [len(data) for _, _, data in blocks]).tolist())


def _entry_keys(n: int, indices: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """The int64 keys i*n + j of the entries of n x n CSR matrices stored one after another,
    with column ``indices`` and row pointers ``indptr[k]`` (a 2-d array) of matrix k."""
    return np.repeat(np.tile(np.arange(n, dtype=np.int64) * n, len(indptr)),
                     np.diff(indptr, axis=1).ravel()) + indices


def _as_csr(matrix) -> sparse.csr_array:
    """``matrix`` as canonical float64 CSR: column indices sorted in each row, duplicates
    summed.  A canonical float64 ``csr_array`` is kept as it is."""
    from scipy import sparse
    if isinstance(matrix, sparse.csr_array) and matrix.dtype == np.float64 \
            and matrix.has_canonical_format:
        return matrix
    matrix = sparse.csr_array(matrix if sparse.issparse(matrix)
                              else np.asarray(matrix, dtype=float), dtype=float)
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    return matrix


def _coerced(what: str, convert, *args):
    """``convert(*args)``, whose TypeError or ValueError is an InvalidInputError ``what``."""
    try:
        return convert(*args)
    except (TypeError, ValueError):
        raise InvalidInputError(what) from None


def _check_points(count: int, what: str) -> None:
    """Refuse more float points than an array holds: numpy raises, or past 2^63 returns []."""
    if count > np.iinfo(np.intp).max // 8:
        raise InvalidInputError(f"{what}: more points than an array can hold")


def _node_count(n) -> int:
    """``n`` as an int: n < 0 is a problem the network check names, n = 0 the empty network."""
    return _coerced(f"node count must be an integer, got {n!r}", operator.index, n)


def _instant_index(k, count) -> int:
    """``k`` as an int in 1..``count``: a 1-based index of one of ``count`` instants."""
    count = _coerced(f"instant count must be an integer, got {count!r}", operator.index, count)
    k = _coerced(f"instant index must be an integer, got {k!r}", operator.index, k)
    if not 1 <= k <= count:
        raise InvalidInputError(f"instant index {k} outside 1..{count}")
    return k


def _pair(values, convert) -> tuple:
    first, second = values
    return convert(first), convert(second)


class DiscreteTemporalNetwork:
    """A fixed node set observed at strictly increasing instants.

    ``snapshots[k]`` holds the instantaneous nonnegative adjacency at
    ``instants[k]``; an optional ``initial_adjacency`` records the day-zero
    baseline an event stream was replayed from.  A network that breaks an
    invariant is not built.

    The matrices are stored as one record of their entries: canonical CSR
    matrices one after another, the snapshots and then the initial
    adjacency, as :func:`_edge_entries` lays them out.  ``snapshots`` and
    ``initial_adjacency`` are canonical float64 ``csr_array`` matrices,
    those given to the constructor or built from the record on first read.
    Networks read from a file or built by ``build_snapshots`` and
    ``truncate`` start from the record alone, so loading, checking and
    writing them needs no scipy.
    """

    def __init__(self, n, instants, snapshots, initial_adjacency=None):
        snapshots = _coerced("snapshots must be a sequence of matrices of numbers",
                             lambda: tuple(map(_as_csr, snapshots)))
        self._set_nodes_and_instants(n, instants)
        if initial_adjacency is not None:
            initial_adjacency = _coerced("initial adjacency must be a matrix of numbers",
                                         _as_csr, initial_adjacency)
        held = snapshots + (() if initial_adjacency is None else (initial_adjacency,))
        # the weights are checked matrix by matrix, where they lie: no copy of them is made
        _validate_discrete(self.n, self.instants, len(snapshots),
                           [(matrix.data, [0, matrix.nnz]) for matrix in held],
                           [matrix.shape for matrix in held])
        self._record = None
        self.snapshots, self.initial_adjacency = snapshots, initial_adjacency

    @classmethod
    def _of_entries(cls, n, instants, entries: tuple, count: int) -> DiscreteTemporalNetwork:
        """The network whose ``count`` snapshots, and initial adjacency if it holds one more
        matrix, are the record ``entries`` of n x n matrices."""
        network = cls.__new__(cls)
        network._set_nodes_and_instants(n, instants)
        data, _, _, starts = entries
        _validate_discrete(network.n, network.instants, count, [(data, starts)], [])
        network._record = entries
        return network

    def _set_nodes_and_instants(self, n, instants) -> None:
        self.n = _node_count(n)
        self.instants = _coerced("instants must be a 1-d sequence of numbers",
                                 np.fromiter, instants, float)

    @property
    def _entries(self) -> tuple:
        """The record (data, indices, indptr, starts) of the matrices: kept by a network built
        from entries, stacked on each read for one built from matrices, which keeps only those."""
        if self._record is not None:
            return self._record
        held = self.snapshots + (() if self.initial_adjacency is None
                                 else (self.initial_adjacency,))
        return _stacked(self.n, [(matrix.indptr, matrix.indices, matrix.data)
                                 for matrix in held])

    @cached_property
    def _matrices(self) -> tuple:
        """The CSR matrices of the record, built once, with its int64 indices."""
        return tuple(_csr_arrays(self.n, *self._entries))

    @cached_property
    def snapshots(self) -> tuple:
        return self._matrices[:self.instant_count]

    @cached_property
    def initial_adjacency(self) -> sparse.csr_array | None:
        return self._matrices[-1] if len(self._entries[3]) > self.instant_count + 1 else None

    @property
    def instant_count(self) -> int:
        return len(self.instants)

    def snapshot_at(self, k: int) -> sparse.csr_array:
        """Adjacency at 1-based instant index ``k``."""
        return self.snapshots[_instant_index(k, self.instant_count) - 1]


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
    mapping always holds both directions explicitly.  A network that breaks
    an invariant is not built; edge functions are checked on a sample grid.
    """

    n: int
    interval: tuple
    edges: dict = field(default_factory=dict)
    symmetric: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n", _node_count(self.n))
        object.__setattr__(self, "interval", _coerced(
            f"interval must be a pair of numbers, got {self.interval!r}",
            _pair, self.interval, float))
        mirrored = {}
        for key, fn in _coerced("edges must map node pairs to weights", dict, self.edges).items():
            i, j = _coerced(f"edge {key!r} is not a pair of node indices",
                            _pair, key, operator.index)
            if not isinstance(fn, TimeFunction):
                fn = TimeFunction.from_callable(fn) if callable(fn) else _coerced(
                    f"edge ({i + 1}, {j + 1}): weight {fn!r} is not a number",
                    TimeFunction.constant, fn)
            mirrored[(i, j)] = fn
            if self.symmetric:
                mirrored.setdefault((j, i), fn)
        object.__setattr__(self, "edges", mirrored)
        object.__setattr__(self, "_edge_scales", _row_scales(
            self.n, self.edge_order.rows, _validate_continuous(self)))

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

        Zero entries are dropped.
        """
        return next(self.edge_csrs(np.reshape(np.asarray(values, dtype=float), (-1, 1))))

    def edge_csrs(self, values: np.ndarray) -> Iterator[sparse.csr_array]:
        """:meth:`edge_csr` of every column of (edges, K) ``values``, in column order; the
        nonzero entries of all the columns are found in one pass."""
        rows, cols, _ = self.edge_order
        return _csr_arrays(self.n, *_edge_entries(self.n, rows, cols, values))

    def values_at(self, times) -> np.ndarray:
        """(edges, times) values of the :attr:`edge_order` functions, one array call each.

        An exception a callable edge function raises is an :class:`InvalidInputError`
        naming the edge and the first of ``times`` it raises at.  Floating-point
        errors warn of nothing: a value that is not finite is returned as it is, and
        every caller checks what it reads.
        """
        times = np.asarray(times, dtype=float).ravel()
        with np.errstate(all="ignore"):
            values = [fn(times) if fn.source is not None else _called(fn, times, label)
                      for fn, label in zip(self.edge_order.functions, self.edge_labels)]
        return np.reshape(values, (len(self.edges), times.size))

    def adjacency_at(self, t: float) -> sparse.csr_array:
        """Pointwise evaluation A(t) as a sparse matrix."""
        return self.edge_csr(self.values_at([t])[:, 0])


def _check_kind(value, kinds=(DiscreteTemporalNetwork, ContinuousTemporalNetwork),
                what: str = "temporal network") -> None:
    """``value`` is one of ``kinds``, a ``what``."""
    if not isinstance(value, kinds):
        raise InvalidInputError(f"not a {what}: {type(value).__name__}")


def _edge_entries(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray):
    """(data, indices, indptr, starts) of the nonzeros of each column of (entries, K)
    ``values`` on the fixed pattern of n x n entries (rows, cols) sorted by (row, col), such
    as a continuous network's edge order, found in one pass: K CSR matrices stored one after
    another, matrix k with data[starts[k]:starts[k + 1]] and row pointer indptr[k]."""
    kept = values.T != 0
    count = np.zeros((len(kept), len(rows) + 1), dtype=np.int64)
    np.cumsum(kept, axis=1, out=count[:, 1:])
    indptr = count[:, np.searchsorted(rows, np.arange(n + 1))]
    starts = np.concatenate(([0], np.cumsum(count[:, -1]))).tolist()
    return values.T[kept], np.broadcast_to(cols, kept.shape)[kept], indptr, starts


def _csr_arrays(n: int, data, indices, indptr, starts) -> Iterator[sparse.csr_array]:
    """The n x n CSR matrices stored one after another as :func:`_edge_entries` gives them."""
    from scipy import sparse
    for column, (start, end) in enumerate(zip(starts, starts[1:])):
        yield sparse.csr_array((data[start:end], indices[start:end], indptr[column]),
                               shape=(n, n))


def _called(fn: TimeFunction, times: np.ndarray, label: str) -> np.ndarray:
    """``fn(times)`` of a callable edge function ``label``; see ``values_at``.  An opaque
    callable may raise any exception, so any is caught."""
    def raises(t):
        try:
            fn(np.array([t]))
        except Exception:
            return True
        return False

    try:
        return fn(times)
    except Exception as exc:
        where = next((f" at t={t!r}" for t in times.tolist() if raises(t)), "")
        raise InvalidInputError(f"{label}: the weight function raised {exc!r}{where}") from exc


#: number of sample points used for the sampled checks on edge functions
_CONTINUOUS_SAMPLES = 33


def _validate_discrete(n: int, instants: np.ndarray, count: int, weights: list,
                       shapes: list) -> None:
    """Raise, as one error, every problem of the network of ``n`` nodes at ``instants``
    whose ``count`` snapshots, and then its initial adjacency, are the matrices whose
    weights are ``weights`` (see :func:`_weight_problems`); matrix k has shape
    ``shapes[k]``, or is n x n past the end of ``shapes``."""
    problems = []
    if n < 0:   # n = 0 is the empty network, with empty bounds
        problems.append(f"node count must not be negative, got {n}")
    if len(instants) != count:
        problems.append(f"{len(instants)} instants but {count} snapshots")
    problems += _instant_problems(instants)
    found = {k: [f"shape {shape}, expected ({n}, {n})"]
             for k, shape in enumerate(shapes) if shape != (n, n)}
    for k, problem in _weight_problems(weights):
        found.setdefault(k, []).append(problem)
    problems += [f"{'initial adjacency' if k == count else f'snapshot {k + 1}'}: {problem}"
                 for k in sorted(found) for problem in found[k]]
    if problems:
        raise InvalidInputError("; ".join(problems))


def _instant_problems(instants: np.ndarray) -> list[str]:
    problems = []
    if not np.isfinite(instants).all():
        problems.append("instants contain non-finite values")
    if np.any(np.diff(instants[np.isfinite(instants)]) <= 0):
        problems.append("instants not strictly increasing")
    return problems


def _weight_problems(weights: list) -> list[tuple[int, str]]:
    """(k, problem) of the matrices whose weights are ``weights``, pieces (data, starts) of
    consecutive matrices, one of a piece holding data[starts[i]:starts[i + 1]]; in order
    of k and, for each, non-finite before negative."""
    found, first = [], 0
    for data, starts in weights:
        found += [(first + k, problem)
                  for problem, bad in (("non-finite weight", ~np.isfinite(data)),
                                       ("negative weight", data < 0))
                  if bad.any()  # np.unique imports numpy.ma: call it only when needed
                  for k in np.unique(np.searchsorted(starts, np.flatnonzero(bad),
                                                     side="right") - 1).tolist()]
        first += len(starts) - 1
    return sorted(found, key=lambda item: item[0])


def _row_scales(n: int, rows: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Per edge, c_i of its row i: the power of two nearest (in ratio) the largest of the
    ``samples`` of row i's edges, or 1 if they are all 0.  Dividing by a power of two is
    exact, and a row divided by c_i peaks between 1/sqrt(2) and sqrt(2) on the samples
    (below 2 past 2^1023 sqrt(2), as 2^1024 is no float); a network whose weights are all
    scaled by 2^j has every c_i scaled by 2^j."""
    peak = np.zeros(n)
    np.maximum.at(peak, rows, samples.max(axis=1, initial=0.0))
    fraction, exponent = np.frexp(peak)
    exponent -= fraction < np.sqrt(0.5)
    return np.where(peak > 0, np.ldexp(1.0, np.minimum(exponent, 1023)), 1.0)[rows]


def _validate_continuous(net: ContinuousTemporalNetwork) -> np.ndarray:
    """The (edges, _CONTINUOUS_SAMPLES) samples of a valid network's edges; raise, as one
    error, every problem of an invalid one."""
    problems = []
    if net.n < 0:   # n = 0 is the empty network, as on the discrete scale
        problems.append(f"node count must not be negative, got {net.n}")
    t0, t1 = net.interval
    rows, cols, _ = net.edge_order
    samples = np.zeros((len(rows), 0))   # none on an interval that is not one
    if not np.isfinite(t1 - t0):
        problems.append("interval endpoints and length must be finite")
    elif not t0 < t1:
        problems.append(f"interval [{t0}, {t1}] is empty")
    else:   # finiteness and sign of an arbitrary evaluator are only sampled
        try:
            samples = net.values_at(np.linspace(t0, t1, _CONTINUOUS_SAMPLES))
        except InvalidInputError as exc:   # a callable that raises
            problems.append(str(exc))
    for i, j, values, label in zip(rows.tolist(), cols.tolist(), samples, net.edge_labels):
        if not (0 <= i < net.n and 0 <= j < net.n):
            problems.append(f"{label} outside node range 1..{net.n}")
        elif not np.isfinite(values).all():
            problems.append(f"{label}: non-finite value on sample grid")
        elif (values < 0).any():
            problems.append(f"{label}: negative value on sample grid")
    if problems:
        raise InvalidInputError("; ".join(problems))
    return samples
