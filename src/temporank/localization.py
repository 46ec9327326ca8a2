"""Resolvent columns and per-node localization bounds on the rank.

The matrix X = (1 - damping) * (Id - damping * M)^{-1}, with M the
stochastic transition matrix (dangling rows patched), satisfies
pi = X^T v for every admissible personalization vector v.  Node i's rank
is therefore a convex combination of column i of X, pinned between the
column minimum and the diagonal entry, whatever v is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accumulate import InstantSetup, StochasticSnapshot, _instants_and_setups
from .errors import InternalError, InvalidInputError
from .pagerank import (DIRECT_SOLVE_MAX_N, _check_damping, _check_probabilities,
                       _run_instants, _solver_by_size, dense_transition)
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

    A dense solve up to DIRECT_SOLVE_MAX_N nodes, else the Neumann series of
    :func:`_resolvent_columns`: its diagonal carries the bound of the rest
    and lies in [exact, exact + tol], every other entry in [exact - tol, exact].
    """
    n = snapshot.n
    if not 0 <= node < n:
        raise InvalidInputError(f"node {node} outside 0..{n - 1}")
    method = _solver_by_size("auto", n, "neumann", "method")
    column = _resolvent_columns(snapshot, damping, [node], u, tol, method,
                                "this instant")[:, 0]
    return ResolventColumn(node, column, damping, snapshot.instant)


def _resolvent_columns(snapshot: StochasticSnapshot, damping: float, nodes,
                       u: np.ndarray | None, tol: float, method: str,
                       instant: str) -> np.ndarray:
    """Columns ``nodes`` of X as an (n, len(nodes)) array, by "direct" or "neumann" ``method``.

    A Neumann column sums the terms damping^m M^m e_i >= 0 up to the first
    term t with damping * max(t) <= tol, at most ceil(log tol / log damping)
    terms.  M is row stochastic, so the rest adds 0 to damping * max(t) to
    each entry; the diagonal gets that bound added, so the column minimum
    and the diagonal enclose the exact pair within tol.  ``u`` is read only
    when the snapshot has dangling rows, and is required then; ``instant``
    names the instant in that error.
    """
    _check_damping(damping)
    n = snapshot.n
    if snapshot.dangling.any():
        if u is None:
            raise InvalidInputError(
                f"network has dangling rows at {instant}; "
                "a dangling distribution u is required")
        u = _check_probabilities([u], n, "dangling distribution")[0]
    else:
        u = None
    columns = np.zeros((n, len(nodes)))
    if method == "direct" and len(nodes):
        columns[list(nodes), range(len(nodes))] = 1.0
        system = np.eye(n) - damping * dense_transition(snapshot, u)
        return (1.0 - damping) * np.linalg.solve(system, columns)
    if not tol > 0:
        raise InvalidInputError(f"tolerance must be positive, got {tol}")
    for m, node in enumerate(nodes):
        columns[:, m] = _resolvent_column_neumann(snapshot, damping, node, u, tol)
    return columns


def _resolvent_column_neumann(snapshot: StochasticSnapshot, damping: float,
                              node: int, u: np.ndarray | None, tol: float) -> np.ndarray:
    term = np.zeros(snapshot.n)
    term[node] = 1.0
    total = term.copy()
    while damping * term.max() > tol:
        term = damping * _apply_m(snapshot, u, term)
        total += term
    column = (1.0 - damping) * total
    column[node] += damping * term.max()
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
    instants, places, setups = _instants_and_setups(net, kernel, damping, None,
                                                    dangling_dist, grid, quad)
    method = _solver_by_size("auto", net.n, "neumann", "method")
    if nodes is None:
        if method == "neumann":
            raise InvalidInputError(
                f"with n={net.n} > {DIRECT_SOLVE_MAX_N} an explicit node subset is required")
        nodes = np.arange(net.n)
    nodes = np.asarray(nodes, dtype=int)
    if nodes.size and not ((0 <= nodes) & (nodes < net.n)).all():
        raise InvalidInputError(f"node subset outside 0..{net.n - 1}")

    def bounds_at(setup: InstantSetup):
        columns = _resolvent_columns(setup.snapshot, setup.damping, nodes, setup.u,
                                     tol, method, f"instant {setup.k}")
        return [_column_bounds(columns[:, m], node) for m, node in enumerate(nodes)]

    results = _run_instants(setups, lambda chunk: list(map(bounds_at, chunk)), threads)
    pairs = np.array(results, dtype=float).reshape(len(results), nodes.size, 2)[places]
    return LocalizationBounds(instants, nodes, pairs[:, :, 0], pairs[:, :, 1])
