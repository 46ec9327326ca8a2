"""Google operator, PageRank solvers, and per-instant trajectories.

G = damping * (P + d u^T) + (1 - damping) e v^T is never materialized.  Every solver,
the bounds' Neumann series too, checks its chunk record in one place, sampled row sums
of G included (:func:`_checked_chunk`).  Power iteration applies G^T through each
instant's P^T, built once as CSR, plus two rank-one terms; direct solves take a chunk's
dense (K, n, n) stack in one stacked LAPACK call.  :func:`pagerank_direct` is the
direct solver called on one instant, and :func:`pagerank_power` the power iteration of one.
"""

from __future__ import annotations

import numbers
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .accumulate import StochasticSnapshot, _instant_chunks
from .errors import ConvergenceError, InternalError, InvalidInputError
from .graph import (ContinuousTemporalNetwork, DiscreteTemporalNetwork, _check_kind, _coerced,
                    _instant_index)
from .quadrature import QuadratureConfig
from .schedules import DampingSchedule, DecayKernel, PersonalizationSchedule

__all__ = [
    "GoogleOperator", "PageRankTrajectory",
    "google_apply_transpose", "pagerank_direct", "pagerank_power",
    "trajectory_discrete", "trajectory_continuous",
    "DIRECT_SOLVE_MAX_N",
]

#: above this size the automatic choice switches to power iteration (Neumann for bounds)
DIRECT_SOLVE_MAX_N = 2000

_SUM_TOL = 1e-10
_ROWSUM_TOL = 1e-12


def _check_probabilities(vectors, n: int, name: str) -> np.ndarray:
    """The (len(vectors), n) stack of ``vectors``, each finite and positive with unit 1-norm."""
    stack = []
    for vector in vectors:
        vector = _coerced(f"{name} must be a vector of numbers", np.asarray, vector,
                          float).ravel()
        if vector.shape != (n,):
            raise InvalidInputError(f"{name} has shape {vector.shape}, expected ({n},)")
        stack.append(vector)
    stack = np.array(stack)
    if not (np.isfinite(stack).all() and (stack > 0).all()
            and (np.abs(stack.sum(axis=1) - 1.0) <= 1e-10).all()):
        raise InvalidInputError(f"{name} must be positive with unit 1-norm")
    return stack


def _check_tol(tol: float) -> None:
    if not (isinstance(tol, numbers.Real) and 0 < tol < np.inf):
        raise InvalidInputError(f"tolerance must be positive and finite, got {tol}")


def _check_count(value, name: str) -> int:
    """``value`` as an int of at least 1; ``name`` names it in the error."""
    count = _coerced(f"{name} must be an integer, got {value!r}", operator.index, value)
    if count < 1:
        raise InvalidInputError(f"{name} must be at least 1, got {count}")
    return count


def _check_snapshot(snapshot) -> None:
    """``snapshot`` is a StochasticSnapshot: a sparse n x n matrix and n integer dangling flags."""
    from scipy import sparse
    if not (isinstance(snapshot, StochasticSnapshot) and sparse.issparse(snapshot.matrix)
            and isinstance(snapshot.dangling, np.ndarray) and snapshot.dangling.dtype.kind in "biu"
            and snapshot.matrix.shape == snapshot.dangling.shape * 2):
        raise InvalidInputError("snapshot must be a StochasticSnapshot of a sparse n x n "
                                "matrix and n integer dangling flags")


def _sampled_rows(n: int) -> np.ndarray:
    """Up to 8 distinct rows spread over 0..n-1, ascending: the points are at least one apart.

    (``np.unique`` here would import numpy.ma, 10-16 ms of a process's start-up.)"""
    return np.linspace(0, n - 1, min(n, 8)).astype(int)


def _checked_chunk(transitions, dangling, dampings, vs, us):
    """Checked (dampings (K,), v (K, n) or None, u (K, n)) of a chunk record, u defaulting to v
    (or 0): damping in (0, 1), v and u finite and positive with unit 1-norm, and sampled rows
    of G summing to 1 within 1e-12.  P is a dense (K, n, n) stack, whose dangling rows get u in
    place, making M, or a tuple of K sparse snapshots.  The one check of every route."""
    n = dangling.shape[1]
    for damping in dampings:
        if not (isinstance(damping, numbers.Real) and 0.0 < damping < 1.0):
            raise InvalidInputError(f"damping must be a real number in (0, 1), got {damping!r}")
    dampings = np.array(dampings, dtype=float)
    v = None if vs is None else _check_probabilities(vs, n, "personalization")
    u = np.zeros((len(dampings), n)) if v is None else v.copy()
    given = [k for k, vector in enumerate(us) if vector is not None]
    if given:
        u[given] = _check_probabilities([us[k] for k in given], n, "dangling distribution")
    sample = _sampled_rows(n)
    if isinstance(transitions, np.ndarray):
        rows = transitions[:, sample].sum(axis=2)
        instants, patched = np.nonzero(dangling == 1)
        transitions[instants, patched] += u[instants]
    else:   # the sums of the sampled rows' stored entries
        rows = np.array([[m.data[m.indptr[i]:m.indptr[i + 1]].sum() for i in sample]
                         for m in (snapshot.matrix.tocsr() for snapshot in transitions)])
    sums = dampings[:, None] * (rows + dangling[:, sample]) + (1.0 - dampings[:, None])
    if not (np.abs(sums - 1.0) <= _ROWSUM_TOL).all():
        raise InternalError("google matrix row sums differ from 1 on sampled rows")
    return dampings, v, u


def _check_simplex(pi: np.ndarray):
    """Every row of the (K, n) ``pi`` is positive with unit 1-norm."""
    if not ((pi > 0).all() and (np.abs(pi.sum(axis=1) - 1.0) <= _SUM_TOL).all()):
        raise InternalError("solver left the probability simplex")


@dataclass(frozen=True)
class GoogleOperator:
    """Implicit G = damping * (P + d u^T) + (1 - damping) e v^T."""

    snapshot: StochasticSnapshot
    damping: float
    v: np.ndarray
    u: np.ndarray | None = None

    def __post_init__(self):
        _check_snapshot(self.snapshot)
        dampings, v, u = _checked_chunk((self.snapshot,), self.snapshot.dangling[None],
                                        [self.damping], [self.v], [self.u])
        object.__setattr__(self, "damping", float(dampings[0]))
        object.__setattr__(self, "v", v[0])
        object.__setattr__(self, "u", u[0])

    @property
    def n(self) -> int:
        return self.snapshot.n

    @cached_property
    def transition_transposed(self):
        """P^T as CSR, built on first use and kept for every later product with G^T."""
        return self.snapshot.matrix.T.tocsr()

    @cached_property
    def dangling_rows(self) -> np.ndarray:
        """Indices of the dangling rows of P."""
        return np.flatnonzero(self.snapshot.dangling == 1)


def google_apply_transpose(op: GoogleOperator, x: np.ndarray) -> np.ndarray:
    """G^T x via the sparse P plus the dangling and teleport rank-one terms."""
    x = _coerced("vector must hold numbers", np.asarray, x, float).ravel()
    if x.shape != (op.n,):
        raise InvalidInputError(f"vector has shape {x.shape}, expected ({op.n},)")
    if not np.isfinite(x).all():
        raise InvalidInputError("vector must be finite")
    return _apply_google_transpose(op.transition_transposed, op.dangling_rows, op.damping, op.u,
                                   op.v, x)


def _apply_google_transpose(transposed, rows, damping, u, v, x) -> np.ndarray:
    """G^T x from P^T (``transposed``) and P's dangling ``rows``: every solve's one product."""
    return damping * (transposed @ x + float(x[rows].sum()) * u) + (1.0 - damping) * x.sum() * v


def pagerank_direct(snapshot: StochasticSnapshot, damping: float, v: np.ndarray,
                    u: np.ndarray | None = None) -> np.ndarray:
    """Solve (Id - damping*(P + d u^T))^T pi = (1 - damping) v by dense factorization.

    Intended for n up to a couple thousand; the result is renormalized to
    unit 1-norm to absorb rounding.  This is the one-instant call of the
    solver trajectories use for a chunk of instants.
    """
    _check_snapshot(snapshot)
    return _direct_chunk((1,), snapshot.matrix.toarray()[None], snapshot.dangling[None],
                         [damping], [v], [u])[0][0]


def _direct_chunk(ks, transitions, dangling, dampings, vs, us) -> tuple:
    """(pi (K, n), iterations (K,) zeros, residuals |damping M^T pi + (1 - damping) v - pi|_1) of
    the K instants ``ks``, by one stacked LAPACK solve that keeps each pi's one-instant bits."""
    dampings, v, _ = _checked_chunk(transitions, dangling, dampings, vs, us)
    systems = dampings[:, None, None] * transitions.transpose(0, 2, 1)
    np.subtract(np.eye(dangling.shape[1]), systems, out=systems)
    try:
        pi = np.linalg.solve(systems, ((1.0 - dampings)[:, None] * v)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:  # cannot happen for damping < 1
        raise InternalError(f"direct PageRank factorization failed: {exc}") from exc
    pi /= pi.sum(axis=1, keepdims=True)
    _check_simplex(pi)
    moved = dampings[:, None] * (pi[:, None] @ transitions)[:, 0] + (1.0 - dampings)[:, None] * v
    return pi, np.zeros(len(pi), dtype=int), np.abs(moved - pi).sum(axis=1)


def pagerank_power(op: GoogleOperator, tol: float = 1e-12,
                   max_iter: int = 100_000) -> tuple[np.ndarray, int, float]:
    """Power iteration x <- normalize1(G^T x) started from the teleport vector.

    Returns (vector, iterations, final residual).  The residual r is the
    1-norm of the last change between iterates, and iteration stops once
    r <= ``tol``: ``tol`` bounds r, not the error.  In exact arithmetic
    the error is then at most damping / (1 - damping) * r in the 1-norm.
    Trajectories run the same iteration, each instant's P^T built once.
    """
    _check_tol(tol)
    max_iter = _check_count(max_iter, "max_iter")
    return _power_iterate(tol, max_iter, None, op.transition_transposed, op.dangling_rows,
                          op.damping, op.u, op.v)


def _power_chunk(tol, max_iter, ks, snapshots, dangling, dampings, vs, us) -> tuple:
    """(pi (K, n), iterations (K,), residuals (K,)) of the K instants ``ks`` of a chunk record
    of sparse snapshots, checked once, each by :func:`_power_iterate` with P^T built once."""
    dampings, v, u = _checked_chunk(snapshots, dangling, dampings, vs, us)
    solved = [_power_iterate(tol, max_iter, k, snapshot.matrix.T.tocsr(),
                             np.flatnonzero(flags == 1), damping, u_k, v_k)
              for k, snapshot, flags, damping, u_k, v_k
              in zip(ks, snapshots, dangling, dampings, u, v)]
    return tuple(np.array(field) for field in zip(*solved))


def _power_iterate(tol, max_iter, k, transposed, rows, damping, u, v) -> tuple:
    """(pi, iterations, residual) of power iteration from v, x <- normalize1(G^T x), of one
    checked instant; k names the instant in a ConvergenceError (None: no instant named)."""
    x, residual = v.copy(), np.inf
    for iteration in range(1, max_iter + 1):
        y = _apply_google_transpose(transposed, rows, damping, u, v, x)
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if not residual > tol:   # NaN too: the simplex check refuses it
            _check_simplex(x[None])
            return x, iteration, residual
    where = "" if k is None else f" at instant {k}"
    raise ConvergenceError(f"power iteration did not reach {tol} within {max_iter} iterations"
                           f"{where} (last residual {residual:.3e})", residual=residual)


@dataclass(frozen=True)
class PageRankTrajectory:
    """Per-instant rank vectors: ``vectors[k]`` belongs to ``instants[k]``."""

    instants: np.ndarray
    vectors: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "instants", np.asarray(self.instants, dtype=float))
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))

    @property
    def n(self) -> int:
        return self.vectors.shape[1]

    def vector_at(self, k: int) -> np.ndarray:
        """Rank vector at 1-based instant index ``k``."""
        return self.vectors[_instant_index(k, len(self.instants)) - 1]


def _solver_by_size(name: str, n: int, iterative: str, what: str) -> str:
    """``name``, "direct" or ``iterative``; "auto" is direct up to DIRECT_SOLVE_MAX_N nodes."""
    if name == "auto":
        name = "direct" if n <= DIRECT_SOLVE_MAX_N else iterative
    if name not in ("direct", iterative):
        raise InvalidInputError(f"unknown {what} {name!r}")
    return name


def _run_instants(tasks, solve, places, threads: int) -> tuple:
    """``solve`` each streamed task, a chunk of instants as the pipeline records it, into one
    record: a tuple of arrays with a row per instant.  A task is drawn only once a solve slot is
    free, so at most ``threads`` are in flight; tasks do not depend on ``threads`` and solves are
    deterministic, so results are identical at any thread count.  Returns each field joined over
    the chunks and indexed by ``places`` (caller order from chunk order); () for no tasks."""
    records = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.submit(solve, task))
            if len(pending) >= threads:
                records.append(pending.popleft().result())
        records.extend(future.result() for future in pending)
    return tuple(np.concatenate(field)[places] for field in zip(*records))


def _trajectory(net, kernel, damping, personalization, dangling_dist, grid, quad, solver,
                tol, max_iter, threads) -> PageRankTrajectory:
    """The rank trajectory on either scale, the network's type naming the scale."""
    _check_kind(net)
    threads = _check_count(threads, "threads")
    max_iter = _check_count(max_iter, "max_iter")
    _check_tol(tol)
    solver = _solver_by_size(solver, net.n, "power", "solver")
    instants, places, chunks = _instant_chunks(net, kernel, damping, personalization,
                                               dangling_dist, grid, quad, solver == "direct")
    if not len(instants):
        raise InvalidInputError("the network has no instants")

    solve = _direct_chunk if solver == "direct" else partial(_power_chunk, tol, max_iter)
    vectors, iterations, residuals = _run_instants(chunks, lambda chunk: solve(*chunk), places,
                                                   threads)
    continuous = isinstance(net, ContinuousTemporalNetwork)
    return PageRankTrajectory(instants, vectors, {
        "scale": "continuous" if continuous else "discrete", "kernel": repr(kernel),
        "damping": repr(damping), "personalization": repr(personalization),
        "solver": solver, "tol": tol, **({"quad_tol": quad.tol} if continuous else {}),
        "iterations": iterations.tolist(), "residuals": residuals.tolist(),
    })


def trajectory_discrete(net: DiscreteTemporalNetwork, kernel: DecayKernel,
                        damping: DampingSchedule, personalization: PersonalizationSchedule,
                        dangling_dist: PersonalizationSchedule | None = None,
                        solver: str = "auto", tol: float = 1e-12,
                        max_iter: int = 100_000, threads: int = 1) -> PageRankTrajectory:
    """Rank vector at every instant of a discrete temporal network.

    Per instant: accumulate with the kernel, row-normalize, patch dangling
    rows with the dangling distribution (defaults to the personalization
    vector), and solve.
    """
    return _trajectory(net, kernel, damping, personalization, dangling_dist, None,
                       QuadratureConfig(), solver, tol, max_iter, threads)


def trajectory_continuous(net: ContinuousTemporalNetwork, kernel: DecayKernel,
                          damping: DampingSchedule, personalization: PersonalizationSchedule,
                          grid, quad: QuadratureConfig = QuadratureConfig(),
                          dangling_dist: PersonalizationSchedule | None = None,
                          solver: str = "auto", tol: float = 1e-12,
                          max_iter: int = 100_000, threads: int = 1) -> PageRankTrajectory:
    """Rank vector at every grid time of a continuous temporal network.

    The grid must lie inside the network interval; the first network
    instant uses the pointwise-adjacency convention of
    :func:`accumulate_continuous`.
    """
    return _trajectory(net, kernel, damping, personalization, dangling_dist, grid, quad,
                       solver, tol, max_iter, threads)
