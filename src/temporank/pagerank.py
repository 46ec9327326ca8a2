"""Google operator, PageRank solvers, and per-instant trajectories.

The operator G = damping * (P + d u^T) + (1 - damping) e v^T is never
materialized: solvers apply its transpose through the sparse P plus two
rank-one corrections.  Direct dense solves handle small problems, a
chunk of instants at a time in one stacked LAPACK call; power iteration
handles the rest.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import islice

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

#: a chunk of instants holds at most this many dense system entries (8 MB)
_CHUNK_ENTRIES = 2 ** 20

_SUM_TOL = 1e-10
_ROWSUM_TOL = 1e-12


def _check_probabilities(vectors, n: int, name: str) -> np.ndarray:
    """The (len(vectors), n) stack of ``vectors``, each finite and positive with unit 1-norm."""
    stack = []
    for vector in vectors:
        vector = np.asarray(vector, dtype=float).ravel()
        if vector.shape != (n,):
            raise InvalidInputError(f"{name} has shape {vector.shape}, expected ({n},)")
        stack.append(vector)
    stack = np.array(stack)
    if not (np.isfinite(stack).all() and (stack > 0).all()
            and (np.abs(stack.sum(axis=1) - 1.0) <= 1e-10).all()):
        raise InvalidInputError(f"{name} must be positive with unit 1-norm")
    return stack


def _checked_inputs(n: int, dampings, vs, us):
    """Damping (K,), v (K, n) and u (K, n) of K instants, checked; u defaults to v."""
    for damping in dampings:
        if not 0.0 < damping < 1.0:
            raise InvalidInputError(f"damping {damping} outside (0, 1)")
    v = _check_probabilities(vs, n, "personalization")
    u = v.copy()
    given = [k for k, vector in enumerate(us) if vector is not None]
    if given:
        u[given] = _check_probabilities([us[k] for k in given], n, "dangling distribution")
    return np.array(dampings, dtype=float), v, u


def _sampled_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, 8)).astype(int))


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
    unit 1-norm to absorb rounding.  This is the one-instant call of the
    solver trajectories use for a chunk of instants.
    """
    return _direct_solve([snapshot], [damping], [v], [u])[0]


def _direct_solve(snapshots, dampings, vs, us) -> np.ndarray:
    """(K, n) rank vectors of K instants of one n, by one stacked ``np.linalg.solve``.

    Runs the checks of :class:`GoogleOperator` on every instant, the
    sampled row sums read from the dense M, and checks that every result
    lies on the simplex.  LAPACK factorizes each system of the stack on
    its own, so every vector has the bits of a one-instant solve.
    """
    n = snapshots[0].n
    dampings, v, u = _checked_inputs(n, dampings, vs, us)
    transitions = np.stack([dense_transition(snapshot, u_k)
                            for snapshot, u_k in zip(snapshots, u)])
    dangling = np.array([snapshot.dangling for snapshot in snapshots])
    sample = _sampled_rows(n)
    flags = dangling[:, sample]
    _check_row_sums(np.where(flags == 1, 0.0, transitions[:, sample].sum(axis=2)), flags,
                    dampings)
    systems = dampings[:, None, None] * transitions.transpose(0, 2, 1)
    np.subtract(np.eye(n), systems, out=systems)
    try:
        pi = np.linalg.solve(systems, ((1.0 - dampings)[:, None] * v)[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError as exc:  # cannot happen for damping < 1
        raise InternalError(f"direct PageRank factorization failed: {exc}") from exc
    pi /= pi.sum(axis=1, keepdims=True)
    _check_simplex(pi)
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


def _chunk_solver(solver: str, n: int, tol: float, max_iter: int):
    """(solve, size): ``solve`` maps a chunk of up to ``size`` consecutive setups
    to their (pi, iterations, residual), in order.

    The direct solver stacks max(1, _CHUNK_ENTRIES // n**2) instants, at
    most 8 MB of dense systems, into one LAPACK call; power iteration
    solves one instant per chunk, so its instants spread over threads.
    """
    if solver == "auto":
        solver = "direct" if n <= DIRECT_SOLVE_MAX_N else "power"
    if solver == "direct":
        return _direct_chunk, max(1, _CHUNK_ENTRIES // n ** 2)
    if solver != "power":
        raise InvalidInputError(f"unknown solver {solver!r}")
    return partial(_power_chunk, tol=tol, max_iter=max_iter), 1


def _direct_chunk(setups: list[InstantSetup]) -> list[tuple[np.ndarray, int, float]]:
    pi = _direct_solve(*zip(*((setup.snapshot, setup.damping, setup.v, setup.u)
                              for setup in setups)))
    return [(vector, 0, 0.0) for vector in pi]


def _power_chunk(setups: list[InstantSetup], tol: float,
                 max_iter: int) -> list[tuple[np.ndarray, int, float]]:
    results = [pagerank_power(GoogleOperator(setup.snapshot, setup.damping, setup.v, setup.u),
                              tol=tol, max_iter=max_iter) for setup in setups]
    _check_simplex(np.array([pi for pi, _, _ in results]))
    return results


def _run_instants(setups, solve, threads: int, size: int = 1) -> list:
    """``solve`` the streamed instant setups, a chunk of ``size`` consecutive ones at a time.

    ``solve`` maps a list of setups to a list of results.  The setups
    arrive one at a time from :func:`iter_instants`, and the next chunk is
    only drawn once a solve slot is free, so no more than ``threads``
    chunks are in flight.  Chunks do not depend on ``threads`` and each
    solve is deterministic, so results are identical at any thread count;
    they come back in instant order.
    """
    setups = iter(setups)
    chunks = iter(lambda: list(islice(setups, size)), [])
    results = {}
    if threads <= 1:
        for chunk in chunks:
            results.update(zip([setup.k for setup in chunk], solve(chunk)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for chunk in chunks:
                pending.append(([setup.k for setup in chunk], pool.submit(solve, chunk)))
                if len(pending) == threads:
                    ks, future = pending.popleft()
                    results.update(zip(ks, future.result()))
            for ks, future in pending:
                results.update(zip(ks, future.result()))
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
    solve, size = _chunk_solver(solver, net.n, tol, max_iter)
    results = _run_instants(setups, solve, threads, size)
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
    if grid.ndim != 1 or grid.size == 0:
        raise InvalidInputError("grid must be a non-empty 1-d sequence")
    setups = iter_instants(net, kernel, damping, personalization, dangling_dist,
                           grid=grid, quad=quad)
    solve, size = _chunk_solver(solver, net.n, tol, max_iter)
    results = _run_instants(setups, solve, threads, size)
    return _assemble(grid, results, {
        "scale": "continuous", "kernel": repr(kernel), "damping": repr(damping),
        "personalization": repr(personalization), "solver": solver, "tol": tol,
        "quad_tol": quad.tol,
    })
