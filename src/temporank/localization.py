"""Resolvent columns and per-node localization bounds on the rank.

The matrix X = (1 - damping) * (Id - damping * M)^{-1}, with M the
stochastic transition matrix (dangling rows patched), satisfies
pi = X^T v for every admissible personalization vector v.  Node i's rank
is therefore a convex combination of column i of X, pinned between the
column minimum and the diagonal entry, whatever v is chosen.  X comes from the ranks' chunk
records (:func:`_resolvent_columns`), and bounds from X by array operations (:func:`_bounds`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accumulate import StochasticSnapshot, _instant_chunks
from .errors import InternalError, InvalidInputError
from .graph import _check_kind
from .pagerank import (DIRECT_SOLVE_MAX_N, _check_count, _check_snapshot, _check_tol,
                       _checked_inputs, _patch_dangling, _run_instants, _solver_by_size)
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
        # (d u^T) x = d * <u, x>, by numpy's pairwise sum: a BLAS dot's bits follow its threads
        y += snapshot.dangling * float((u * x).sum())
    return y


def resolvent_column(snapshot: StochasticSnapshot, damping: float, node: int,
                     u: np.ndarray | None = None, tol: float = 1e-12) -> ResolventColumn:
    """Column ``node`` (0-based) of X = (1-damping)(Id - damping*M)^{-1}.

    Up to DIRECT_SOLVE_MAX_N nodes by a dense solve, else by the Neumann series of
    :func:`_resolvent_column_neumann`: every entry carries the lower bound of the rest of
    the series and the diagonal its upper bound, so the diagonal lies in [exact, exact + tol]
    and every other entry in [exact - tol, exact].
    """
    _check_tol(tol)
    _check_snapshot(snapshot)
    nodes = _checked_nodes([node], snapshot.n)
    direct = _solver_by_size("auto", snapshot.n, "neumann", "method") == "direct"
    matrix = snapshot.matrix.toarray()[None] if direct else (snapshot,)
    columns = _resolvent_columns(nodes, tol, (None,), matrix, snapshot.dangling[None],
                                 (damping,), None, (u if snapshot.dangling.any() else None,))
    return ResolventColumn(int(nodes[0]), columns[0, :, 0], damping, snapshot.instant)


def bounds_for_node(snapshot: StochasticSnapshot, damping: float, node: int,
                    u: np.ndarray | None = None, tol: float = 1e-12) -> tuple[float, float]:
    """(lo, hi) = (min of column ``node`` of X, its diagonal entry).

    The diagonal must also be the column maximum; a violation beyond
    tolerance means the solver broke and raises :class:`InternalError`.
    """
    x = resolvent_column(snapshot, damping, node, u, tol)
    return tuple(float(bound[0, 0]) for bound in _bounds(x.column[None, :, None], [x.node]))


def _checked_nodes(nodes, n: int) -> np.ndarray:
    """``nodes`` as a 1-d int array of 0-based nodes of an n-node network."""
    nodes = np.asarray(nodes)
    if nodes.ndim != 1 or nodes.dtype.kind not in "iuf" or (nodes != np.floor(nodes)).any() \
            or not ((0 <= nodes) & (nodes < n)).all():
        raise InvalidInputError(f"node subset must be 1-d integers in 0..{n - 1}")
    return nodes.astype(int)


def _resolvent_columns(nodes, tol, ks, transitions, dangling, dampings, vs, us) -> np.ndarray:
    """Columns ``nodes`` of X, (K, n, len(nodes)), at the K instants of a chunk record
    (``vs`` unread): of a dense (K, n, n) stack P by one stacked solve of
    (Id - damping M) X = (1 - damping) E_nodes, of a tuple of CSR snapshots by the Neumann
    series to ``tol``.  u is None at an instant with no dangling rows, and required at any
    other; k names the instant in that error, None "this instant"."""
    for k, flags, u in zip(ks, dangling, us):
        if flags.any() and u is None:
            where = "this instant" if k is None else f"instant {k}"
            raise InvalidInputError(f"network has dangling rows at {where}; "
                                    "a dangling distribution u is required")
    n = dangling.shape[1]
    if isinstance(transitions, np.ndarray):
        dampings, _ = _patch_dangling(transitions, dangling, dampings, None, us)
        if not len(nodes):
            return np.zeros((len(ks), n, 0))
        systems = dampings[:, None, None] * transitions
        np.subtract(np.eye(n), systems, out=systems)
        return (1.0 - dampings)[:, None, None] * np.linalg.solve(systems, np.eye(n)[:, nodes])
    _check_tol(tol)   # the series would never stop at tol <= 0
    dampings, _, checked = _checked_inputs(n, dampings, None, us)
    columns = np.zeros((len(ks), n, len(nodes)))
    for i, m in np.ndindex(len(ks), len(nodes)):
        u = None if us[i] is None else checked[i]
        columns[i, :, m] = _resolvent_column_neumann(transitions[i], dampings[i], nodes[m], u, tol)
    return columns


def _resolvent_column_neumann(snapshot: StochasticSnapshot, damping: float, node: int,
                              u: np.ndarray | None, tol: float) -> np.ndarray:
    """Column ``node`` of X by the Neumann series: the terms damping^m M^m e_i >= 0 up to
    the first term t with damping * (max(t) - min(t)) <= tol, at most ceil(log tol / log
    damping) of them.  M is row stochastic, so the rest adds damping * min(t) to
    damping * max(t) to each entry: every entry gets the lower bound and the diagonal the
    upper one, and the column minimum and the diagonal enclose the exact pair within tol."""
    term = np.zeros(snapshot.n)
    term[node] = 1.0
    total = term.copy()
    while damping * (term.max() - term.min()) > tol:
        term = damping * _apply_m(snapshot, u, term)
        total += term
    column = (1.0 - damping) * total + damping * term.min()
    column[node] += damping * (term.max() - term.min())
    return column


def _bounds(columns: np.ndarray, nodes: np.ndarray | list) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (K, m): the minimum and the diagonal entry of each of the (K, n, m)
    ``columns`` of X for ``nodes``.  The diagonal must also be the column maximum; the
    first violation beyond tolerance means the solver broke and raises InternalError."""
    hi = columns[:, nodes, np.arange(len(nodes))]
    top = columns.max(axis=1, initial=-np.inf)   # initial: n = 0 leaves an empty axis
    broken = np.argwhere(top > hi + _DOMINANCE_TOL)
    if broken.size:
        k, m = broken[0]
        raise InternalError(f"resolvent column {nodes[m]}: diagonal {float(hi[k, m])!r} "
                            f"is not the maximum {float(top[k, m])!r}")
    return columns.min(axis=1, initial=np.inf), hi


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
    _check_kind(net)
    _check_tol(tol)
    threads = _check_count(threads, "threads")
    direct = _solver_by_size("auto", net.n, "neumann", "method") == "direct"
    instants, places, chunks = _instant_chunks(net, kernel, damping, None, dangling_dist, grid,
                                               quad, direct)
    if nodes is None:
        if not direct:
            raise InvalidInputError(
                f"with n={net.n} > {DIRECT_SOLVE_MAX_N} an explicit node subset is required")
        nodes = np.arange(net.n)
    nodes = _checked_nodes(nodes, net.n)

    def solve(task):   # P a dense stack, or CSR snapshots for the Neumann series
        return _bounds(_resolvent_columns(nodes, tol, *task), nodes)

    lo, hi = _run_instants(chunks, solve, places, threads) or (np.zeros((0, nodes.size)),) * 2
    return LocalizationBounds(instants, nodes, lo, hi)
