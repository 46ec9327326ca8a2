"""Google operator, PageRank solvers, and per-instant trajectories.

The operator G = damping * (P + d u^T) + (1 - damping) e v^T is never
materialized: solvers apply its transpose through the sparse P plus two
rank-one corrections.  A direct dense solve handles small problems; power
iteration handles the rest.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .accumulate import InstantSetup, StochasticSnapshot, iter_instants
from .errors import ConvergenceError, InternalError, InvalidInputError
from .graph import ContinuousTemporalNetwork, DiscreteTemporalNetwork
from .quadrature import QuadratureConfig
from .schedules import DampingSchedule, DecayKernel, PersonalizationSchedule

__all__ = [
    "GoogleOperator", "PageRankTrajectory",
    "dense_transition", "google_apply_transpose", "pagerank_direct", "pagerank_power",
    "trajectory_discrete", "trajectory_continuous",
    "DIRECT_SOLVE_MAX_N",
]

#: above this size the automatic solver choice switches to power iteration
DIRECT_SOLVE_MAX_N = 2000

_SUM_TOL = 1e-10
_ROWSUM_TOL = 1e-12


def _check_probability(vector: np.ndarray, n: int, name: str) -> np.ndarray:
    vector = np.asarray(vector, dtype=float).ravel()
    if vector.shape != (n,):
        raise InvalidInputError(f"{name} has shape {vector.shape}, expected ({n},)")
    if (vector <= 0).any() or abs(vector.sum() - 1.0) > 1e-10:
        raise InvalidInputError(f"{name} must be positive with unit 1-norm")
    return vector


@dataclass(frozen=True)
class GoogleOperator:
    """Implicit G = damping * (P + d u^T) + (1 - damping) e v^T."""

    snapshot: StochasticSnapshot
    damping: float
    v: np.ndarray
    u: np.ndarray | None = None

    def __post_init__(self):
        n = self.snapshot.n
        if not 0.0 < self.damping < 1.0:
            raise InvalidInputError(f"damping {self.damping} outside (0, 1)")
        object.__setattr__(self, "v", _check_probability(self.v, n, "personalization"))
        u = self.v if self.u is None else _check_probability(self.u, n, "dangling distribution")
        object.__setattr__(self, "u", u)
        self._check_sampled_rows()

    def _check_sampled_rows(self):
        n = self.snapshot.n
        sample = np.unique(np.linspace(0, n - 1, min(n, 8)).astype(int))
        indptr, data = self.snapshot.matrix.indptr, self.snapshot.matrix.data
        rows = np.array([data[indptr[i]:indptr[i + 1]].sum() for i in sample])
        sums = self.damping * (rows + self.snapshot.dangling[sample]) + (1.0 - self.damping)
        if np.max(np.abs(sums - 1.0)) > _ROWSUM_TOL:
            raise InternalError("google matrix row sums differ from 1 on sampled rows")

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
    x = np.asarray(x, dtype=float).ravel()
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
    unit 1-norm to absorb rounding.
    """
    op = GoogleOperator(snapshot, damping, v, u)
    system = np.eye(op.n) - op.damping * dense_transition(op.snapshot, op.u).T
    try:
        pi = np.linalg.solve(system, (1.0 - op.damping) * op.v)
    except np.linalg.LinAlgError as exc:  # cannot happen for damping < 1
        raise InternalError(f"direct PageRank factorization failed: {exc}") from exc
    pi /= pi.sum()
    return pi


def dense_transition(snapshot: StochasticSnapshot, u: np.ndarray | None) -> np.ndarray:
    """M = P + d u^T as a dense array; with ``u`` None the dangling rows stay zero.

    The direct PageRank solve and the direct resolvent solve both use it,
    so the localization bounds come from the matrix the ranks come from.
    """
    m = snapshot.matrix.toarray()
    if u is not None:
        m[np.flatnonzero(snapshot.dangling == 1), :] += u[None, :]
    return m


def pagerank_power(op: GoogleOperator, tol: float = 1e-12,
                   max_iter: int = 100_000) -> tuple[np.ndarray, int, float]:
    """Power iteration x <- normalize1(G^T x) started from the teleport vector.

    Returns (vector, iterations, final residual).  The residual r is the
    1-norm of the last change between iterates, and iteration stops once
    r <= ``tol``: ``tol`` bounds r, not the error.  In exact arithmetic
    the error is then at most damping / (1 - damping) * r in the 1-norm.
    """
    if tol <= 0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
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


def _solve_setup(setup: InstantSetup, solver: str, tol: float,
                 max_iter: int) -> tuple[np.ndarray, int, float]:
    snapshot = setup.snapshot
    if solver == "auto":
        solver = "direct" if snapshot.n <= DIRECT_SOLVE_MAX_N else "power"
    if solver == "direct":
        pi = pagerank_direct(snapshot, setup.damping, setup.v, setup.u)
        iterations, residual = 0, 0.0
    elif solver == "power":
        pi, iterations, residual = pagerank_power(
            GoogleOperator(snapshot, setup.damping, setup.v, setup.u),
            tol=tol, max_iter=max_iter)
    else:
        raise InvalidInputError(f"unknown solver {solver!r}")
    if (pi <= 0).any() or abs(pi.sum() - 1.0) > _SUM_TOL:
        raise InternalError("solver left the probability simplex")
    return pi, iterations, residual


def _run_instants(setups, solve, threads: int) -> list:
    """``solve`` every streamed instant setup, with at most ``threads`` in flight.

    The setups arrive one at a time from :func:`iter_instants`; the next
    is only drawn once a solve slot is free, so no more than ``threads``
    snapshots are alive at once.  Each solve is deterministic, so results
    are identical at any thread count; they come back in instant order.
    """
    results = {}
    if threads <= 1:
        for setup in setups:
            results[setup.k] = solve(setup)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for setup in setups:
                pending.append((setup.k, pool.submit(solve, setup)))
                if len(pending) == threads:
                    k, future = pending.popleft()
                    results[k] = future.result()
            for k, future in pending:
                results[k] = future.result()
    return [results[k] for k in sorted(results)]


def _assemble(instants, results, metadata) -> PageRankTrajectory:
    vectors = np.vstack([pi for pi, _, _ in results])
    metadata = dict(metadata)
    metadata["iterations"] = [it for _, it, _ in results]
    metadata["residuals"] = [res for _, _, res in results]
    return PageRankTrajectory(np.asarray(instants, dtype=float), vectors, metadata)


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
    setups = iter_instants(net, kernel, damping, personalization, dangling_dist)
    solve = partial(_solve_setup, solver=solver, tol=tol, max_iter=max_iter)
    results = _run_instants(setups, solve, threads)
    return _assemble(net.instants, results, {
        "scale": "discrete", "kernel": repr(kernel), "damping": repr(damping),
        "personalization": repr(personalization), "solver": solver, "tol": tol,
    })


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
    grid = np.asarray(grid, dtype=float)
    setups = iter_instants(net, kernel, damping, personalization, dangling_dist,
                           grid=grid, quad=quad)
    solve = partial(_solve_setup, solver=solver, tol=tol, max_iter=max_iter)
    results = _run_instants(setups, solve, threads)
    return _assemble(grid, results, {
        "scale": "continuous", "kernel": repr(kernel), "damping": repr(damping),
        "personalization": repr(personalization), "solver": solver, "tol": tol,
        "quad_tol": quad.tol,
    })
