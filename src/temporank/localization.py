"""Resolvent columns and per-node localization bounds on the rank.

The matrix X = (1 - damping) * (Id - damping * M)^{-1}, with M the
stochastic transition matrix (dangling rows patched), satisfies
pi = X^T v for every admissible personalization vector v.  Node i's rank
is therefore a convex combination of column i of X, pinned between the
column minimum and the diagonal entry, whatever v is chosen.  X comes from
the ranks' dense chunks up to DIRECT_SOLVE_MAX_N nodes, else from the Neumann series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accumulate import StochasticSnapshot, _instant_chunks
from .errors import InternalError, InvalidInputError
from .pagerank import (DIRECT_SOLVE_MAX_N, _check_damping, _check_probabilities,
                       _check_count, _check_tol, _patch_dangling, _run_instants,
                       _solver_by_size)
from .quadrature import QuadratureConfig
from .schedules import DampingSchedule, DecayKernel, PersonalizationSchedule

__all__ = [
    "ResolventColumn", "LocalizationBounds",
    "resolvent_column", "bounds_for_node", "bounds_trajectory",
]

_DOMINANCE_TOL = 1e-10


@dataclass(frozen=True)
class ResolventColumn:
    """Column ``node`` of X at one instant: entries (X_1i, ..., X_ni)."""

    node: int
    column: np.ndarray
    damping: float
    instant: float


@dataclass(frozen=True)
class LocalizationBounds:
    """Intervals [lo, hi] containing each node's rank at each instant.

    ``lo[k, m]`` and ``hi[k, m]`` bound node ``nodes[m]`` (0-based) at
    ``instants[k]``, for every personalization vector simultaneously.
    """

    instants: np.ndarray
    nodes: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _apply_m(snapshot: StochasticSnapshot, u: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    y = snapshot.matrix @ x
    if u is not None:
        # dangling rows of M contain u^T: (d u^T) x = d * <u, x>
        y += snapshot.dangling * float(u @ x)
    return y


def resolvent_column(snapshot: StochasticSnapshot, damping: float, node: int,
                     u: np.ndarray | None = None, tol: float = 1e-12) -> ResolventColumn:
    """Column ``node`` (0-based) of X = (1-damping)(Id - damping*M)^{-1}.

    Up to DIRECT_SOLVE_MAX_N nodes :func:`_resolvent_chunk` on one instant, else
    the Neumann series of :func:`_resolvent_columns`: every entry carries the lower bound
    of the rest of the series and the diagonal its upper bound, so the diagonal lies in
    [exact, exact + tol] and every other entry in [exact - tol, exact].
    """
    _check_tol(tol)
    _check_snapshot(snapshot)
    n = snapshot.n
    node = int(_checked_nodes([node], n)[0])
    u = _dangling_u(snapshot.dangling, u, "this instant")
    if _solver_by_size("auto", n, "neumann", "method") == "direct":
        column = _resolvent_chunk([node], (1,), snapshot.matrix.toarray()[None],
                                  snapshot.dangling[None], [damping], None, [u])[0][:, 0]
    else:
        column = _resolvent_columns(snapshot, damping, [node], u, tol, "this instant")[:, 0]
    return ResolventColumn(node, column, damping, snapshot.instant)


def _check_snapshot(snapshot) -> None:
    """``snapshot`` is a StochasticSnapshot: a sparse n x n matrix and n integer dangling flags."""
    from scipy import sparse
    if not (isinstance(snapshot, StochasticSnapshot) and sparse.issparse(snapshot.matrix)
            and isinstance(snapshot.dangling, np.ndarray) and snapshot.dangling.dtype.kind in "biu"
            and snapshot.matrix.shape == snapshot.dangling.shape * 2):
        raise InvalidInputError("snapshot must be a StochasticSnapshot of a sparse n x n "
                                "matrix and n integer dangling flags")


def _checked_nodes(nodes, n: int) -> np.ndarray:
    """``nodes`` as a 1-d int array of 0-based nodes of an n-node network."""
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.dtype.kind not in "iuf" or (nodes != np.floor(nodes)).any() \
            or not ((0 <= nodes) & (nodes < n)).all():
        raise InvalidInputError(f"node subset must be 1-d integers in 0..{n - 1}")
    return nodes.astype(int)


def _dangling_u(dangling: np.ndarray, u: np.ndarray | None, instant: str):
    """``u`` if the ``dangling`` flags mark a row, where it is required, else None."""
    if dangling.any() and u is None:
        raise InvalidInputError(f"network has dangling rows at {instant}; "
                                "a dangling distribution u is required")
    return u if dangling.any() else None


def _resolvent_chunk(nodes, ks, transitions, dangling, dampings, vs, us) -> np.ndarray:
    """Columns ``nodes`` of X, (K, n, len(nodes)), at the K instants ``ks`` of a dense chunk
    (``vs`` unread): (Id - damping M) X = (1 - damping) E_nodes in one stacked solve, or none."""
    us = [_dangling_u(flags, u, f"instant {k}") for k, flags, u in zip(ks, dangling, us)]
    dampings, _ = _patch_dangling(transitions, dangling, dampings, None, us)
    n = dangling.shape[1]
    if not len(nodes):
        return np.zeros((len(ks), n, 0))
    systems = dampings[:, None, None] * transitions
    np.subtract(np.eye(n), systems, out=systems)
    return (1.0 - dampings)[:, None, None] * np.linalg.solve(systems, np.eye(n)[:, nodes])


def _resolvent_columns(snapshot: StochasticSnapshot, damping: float, nodes,
                       u: np.ndarray | None, tol: float, instant: str) -> np.ndarray:
    """Columns ``nodes`` of X as an (n, len(nodes)) array, by the Neumann series.

    A column sums the terms damping^m M^m e_i >= 0 up to the first term t
    with damping * (max(t) - min(t)) <= tol, at most ceil(log tol / log
    damping) terms, and fewer the sooner the terms even out.  M is row
    stochastic, so every later term lies entrywise in [min(t), max(t)] and
    the rest adds damping * min(t) to damping * max(t) to each entry: every
    entry gets the lower bound and the diagonal the upper one, so the column
    minimum and the diagonal enclose the exact pair within tol.  ``u`` is read only
    when the snapshot has dangling rows, and is required then; ``instant``
    names the instant in that error.
    """
    _check_damping(damping)
    u = _dangling_u(snapshot.dangling, u, instant)
    if u is not None:
        u = _check_probabilities([u], snapshot.n, "dangling distribution")[0]
    _check_tol(tol)
    columns = np.zeros((snapshot.n, len(nodes)))
    for m, node in enumerate(nodes):
        columns[:, m] = _resolvent_column_neumann(snapshot, damping, node, u, tol)
    return columns


def _resolvent_column_neumann(snapshot: StochasticSnapshot, damping: float,
                              node: int, u: np.ndarray | None, tol: float) -> np.ndarray:
    term = np.zeros(snapshot.n)
    term[node] = 1.0
    total = term.copy()
    while damping * (term.max() - term.min()) > tol:
        term = damping * _apply_m(snapshot, u, term)
        total += term
    column = (1.0 - damping) * total + damping * term.min()
    column[node] += damping * (term.max() - term.min())
    return column


def bounds_for_node(snapshot: StochasticSnapshot, damping: float, node: int,
                    u: np.ndarray | None = None, tol: float = 1e-12) -> tuple[float, float]:
    """(lo, hi) = (min of column ``node`` of X, its diagonal entry).

    The diagonal must also be the column maximum; a violation beyond
    tolerance means the solver broke and raises :class:`InternalError`.
    """
    return _column_bounds(resolvent_column(snapshot, damping, node, u, tol).column, node)


def _column_bounds(column: np.ndarray, node: int) -> tuple[float, float]:
    hi = float(column[node])
    top = float(column.max())
    if top > hi + _DOMINANCE_TOL:
        raise InternalError(
            f"resolvent column {node}: diagonal {hi!r} is not the maximum {top!r}")
    return float(column.min()), hi


def bounds_trajectory(net, kernel: DecayKernel, damping: DampingSchedule,
                      nodes=None, grid=None, quad: QuadratureConfig = QuadratureConfig(),
                      dangling_dist: PersonalizationSchedule | None = None,
                      tol: float = 1e-12, threads: int = 1) -> LocalizationBounds:
    """Localization bounds per requested instant and node.

    For a discrete network the instants are its own and ``grid`` must be
    None; for a continuous one ``grid`` supplies the evaluation times.
    Bounds are computed from the same patched transition matrix the
    trajectory uses: with no dangling rows, every trajectory with every
    personalization schedule stays inside them; with dangling rows they
    hold for every personalization under the fixed dangling distribution
    ``dangling_dist`` (trajectories default theirs to the personalization
    schedule, so pass the same one here to bound them).
    """
    _check_tol(tol)
    threads = _check_count(threads, "threads")
    method = _solver_by_size("auto", net.n, "neumann", "method")
    instants, places, chunks = _instant_chunks(net, kernel, damping, None, dangling_dist, grid,
                                               quad, method == "direct")
    if nodes is None:
        if method == "neumann":
            raise InvalidInputError(
                f"with n={net.n} > {DIRECT_SOLVE_MAX_N} an explicit node subset is required")
        nodes = np.arange(net.n)
    nodes = _checked_nodes(nodes, net.n)

    def solve(task):   # P a dense stack, or CSR snapshots for the Neumann series
        ks, transitions, _, dampings, _, us = task
        columns = _resolvent_chunk(nodes, *task) if method == "direct" else [
            _resolvent_columns(snapshot, damping_k, nodes, u, tol, f"instant {k}")
            for k, snapshot, damping_k, u in zip(ks, transitions, dampings, us)]
        return [[_column_bounds(x[:, m], node) for m, node in enumerate(nodes)] for x in columns]

    results = _run_instants(chunks, solve, threads)
    bounds = np.array(results, dtype=float).reshape(len(results), nodes.size, 2)[places]
    return LocalizationBounds(instants, nodes, bounds[:, :, 0], bounds[:, :, 1])
