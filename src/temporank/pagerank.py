"""Google operator, PageRank solvers, and per-instant trajectories.

The operator G = damping * (P + d u^T) + (1 - damping) e v^T is never
materialized: power iteration applies its transpose through the sparse P
plus two rank-one corrections, one CSR snapshot per instant.  Direct dense
solves handle small problems, a chunk of instants at a time in one stacked
LAPACK call, taking P as the dense (K, n, n) stack accumulation hands over.
"""

from __future__ import annotations

import numbers
import operator
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .accumulate import StochasticSnapshot, _instant_chunks
from .errors import ConvergenceError, InternalError, InvalidInputError
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork, _check_kind, _coerced
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


def _checked_inputs(n: int, dampings, vs, us):
    """Damping (K,), v (K, n) and u (K, n) of K instants, checked; u defaults to v (or 0)."""
    for damping in dampings:
        if not (isinstance(damping, numbers.Real) and 0.0 < damping < 1.0):
            raise InvalidInputError(f"damping {damping} outside (0, 1)")
    v = None if vs is None else _check_probabilities(vs, n, "personalization")
    u = np.zeros((len(dampings), n)) if v is None else v.copy()
    given = [k for k, vector in enumerate(us) if vector is not None]
    if given:
        u[given] = _check_probabilities([us[k] for k in given], n, "dangling distribution")
    return np.array(dampings, dtype=float), v, u


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


def _check_row_sums(rows: np.ndarray, dangling: np.ndarray, dampings: np.ndarray):
    """Rows of G sum to one, from (K, s) sums of sampled rows of P and their dangling flags."""
    sums = dampings[:, None] * (rows + dangling) + (1.0 - dampings[:, None])
    if not (np.abs(sums - 1.0) <= _ROWSUM_TOL).all():
        raise InternalError("google matrix row sums differ from 1 on sampled rows")


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
        dampings, v, u = _checked_inputs(self.n, [self.damping], [self.v], [self.u])
        object.__setattr__(self, "v", v[0])
        object.__setattr__(self, "u", u[0])
        sample = _sampled_rows(self.n)
        indptr, data = self.snapshot.matrix.indptr, self.snapshot.matrix.data
        rows = np.array([data[indptr[i]:indptr[i + 1]].sum() for i in sample])
        _check_row_sums(rows[None], self.snapshot.dangling[None, sample], dampings)

    @property
    def n(self) -> int:
        return self.snapshot.n

    @cached_property
    def transition_transposed(self):
        """P^T as CSR, built on first use: only power iteration applies it."""
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
    y = op.transition_transposed @ x
    dangling_mass = float(x[op.dangling_rows].sum())
    return op.damping * (y + dangling_mass * op.u) + (1.0 - op.damping) * x.sum() * op.v


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


def _patch_dangling(transitions, dangling, dampings, vs, us):
    """Checked (dampings, v) of a dense chunk; adds u to the dangling rows of its stack P in
    place, making M for ranks and bounds, and runs :class:`GoogleOperator`'s checks on M."""
    n = dangling.shape[1]
    dampings, v, u = _checked_inputs(n, dampings, vs, us)
    instants, rows = np.nonzero(dangling == 1)
    transitions[instants, rows] += u[instants]
    sample = _sampled_rows(n)
    flags = dangling[:, sample]
    _check_row_sums(np.where(flags == 1, 0.0, transitions[:, sample].sum(axis=2)), flags,
                    dampings)
    return dampings, v


def _direct_chunk(ks, transitions, dangling, dampings, vs, us) -> list[tuple]:
    """(pi, 0, residual) of the K instants ``ks``, by one stacked ``np.linalg.solve``; each pi
    on the simplex, residual |damping M^T pi + (1 - damping) v - pi|_1.  LAPACK factorizes
    each system on its own, so every vector has the bits of a one-instant solve."""
    dampings, v = _patch_dangling(transitions, dangling, dampings, vs, us)
    systems = dampings[:, None, None] * transitions.transpose(0, 2, 1)
    np.subtract(np.eye(dangling.shape[1]), systems, out=systems)
    try:
        pi = np.linalg.solve(systems, ((1.0 - dampings)[:, None] * v)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:  # cannot happen for damping < 1
        raise InternalError(f"direct PageRank factorization failed: {exc}") from exc
    pi /= pi.sum(axis=1, keepdims=True)
    _check_simplex(pi)
    moved = dampings[:, None] * (pi[:, None] @ transitions)[:, 0] + (1.0 - dampings)[:, None] * v
    return list(zip(pi, [0] * len(pi), np.abs(moved - pi).sum(axis=1).tolist()))


def pagerank_power(op: GoogleOperator, tol: float = 1e-12,
                   max_iter: int = 100_000) -> tuple[np.ndarray, int, float]:
    """Power iteration x <- normalize1(G^T x) started from the teleport vector.

    Returns (vector, iterations, final residual).  The residual r is the
    1-norm of the last change between iterates, and iteration stops once
    r <= ``tol``: ``tol`` bounds r, not the error.  In exact arithmetic
    the error is then at most damping / (1 - damping) * r in the 1-norm.
    """
    _check_tol(tol)
    max_iter = _check_count(max_iter, "max_iter")
    x = op.v.copy()
    residual = np.inf
    for iteration in range(1, max_iter + 1):
        y = google_apply_transpose(op, x)
        y /= y.sum()
        residual = float(np.abs(y - x).sum())
        x = y
        if residual <= tol:
            return x, iteration, residual
    raise ConvergenceError(
        f"power iteration did not reach {tol} within {max_iter} iterations "
        f"(last residual {residual:.3e})", residual=residual)


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
        return self.vectors[k - 1]


def _solver_by_size(name: str, n: int, iterative: str, what: str) -> str:
    """``name``, "direct" or ``iterative``; "auto" is direct up to DIRECT_SOLVE_MAX_N nodes."""
    if name == "auto":
        name = "direct" if n <= DIRECT_SOLVE_MAX_N else iterative
    if name not in ("direct", iterative):
        raise InvalidInputError(f"unknown {what} {name!r}")
    return name


def _power_solve(ks, snapshots, dangling, dampings, vs, us, tol: float,
                 max_iter: int) -> list[tuple[np.ndarray, int, float]]:
    """(pi, iterations, residual) of each instant of a chunk of CSR ``snapshots``."""
    results = [pagerank_power(GoogleOperator(*instant), tol=tol, max_iter=max_iter)
               for instant in zip(snapshots, dampings, vs, us)]
    _check_simplex(np.array([pi for pi, _, _ in results]))
    return results


def _run_instants(tasks, solve, threads: int) -> list:
    """``solve`` each of the streamed tasks, chunks of instants as the pipeline records them.

    ``solve`` maps a task to a list of results, one per instant.  The
    tasks arrive one at a time, and the next is only drawn once a solve
    slot is free, so no more than ``threads`` tasks are in flight.  Tasks
    do not depend on ``threads`` and each solve is deterministic, so
    results are identical at any thread count; they come back in the
    order of the tasks, one per instant.
    """
    results = []
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = deque()
        for task in tasks:
            pending.append(pool.submit(solve, task))
            if len(pending) >= threads:
                results.extend(pending.popleft().result())
        for future in pending:
            results.extend(future.result())
    return results


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

    def solve(record):
        return _direct_chunk(*record) if solver == "direct" else \
            _power_solve(*record, tol, max_iter)

    results = _run_instants(chunks, solve, threads)
    vectors, iterations, residuals = zip(*(results[place] for place in places))
    continuous = isinstance(net, ContinuousTemporalNetwork)
    return PageRankTrajectory(instants, np.array(vectors), {
        "scale": "continuous" if continuous else "discrete", "kernel": repr(kernel),
        "damping": repr(damping), "personalization": repr(personalization),
        "solver": solver, "tol": tol, **({"quad_tol": quad.tol} if continuous else {}),
        "iterations": list(iterations), "residuals": list(residuals),
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
