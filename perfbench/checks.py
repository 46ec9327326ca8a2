"""Output checks that do not use the code under test.

Every check reads the files a CLI command wrote and returns a list of
problems; an empty list means the output passed.  Reference values come
from the generators' own tallies or from matrices built here with numpy
and scipy, never from temporank.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import integrate, sparse
from scipy.sparse import linalg as splinalg


def _rows(path: str, fields: int, problems: list) -> list[list[str]]:
    rows = []
    header = True
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if line.startswith("#") or header:
                header = header and line.startswith("#")
                continue              # timestamp comment and column header
            parts = line.rstrip("\n").split(",")
            if len(parts) != fields:
                problems.append(f"{path}:{number}: expected {fields} fields")
                return []
            rows.append(parts)
    return rows


def ingest_summary(path: str, tallies: dict) -> list[str]:
    """The ingest JSON summary counts equal the generator's tallies."""
    with open(path, encoding="utf-8") as handle:
        summary = json.load(handle)
    problems = [f"summary {key}: {summary.get(key)!r}, generated {tallies[key]!r}"
                for key in ("n", "events", "adds", "removes",
                            "distinct_added", "distinct_removed")
                if summary.get(key) != tallies[key]]
    if summary.get("warnings") != 0:
        problems.append(f"summary warnings: {summary.get('warnings')!r}, expected 0")
    return problems


def read_network(path: str) -> tuple[int | None, list[tuple[float, sparse.csr_array]]]:
    """Node count and (instant, snapshot) blocks of a discrete network file."""
    blocks: list[tuple[float, list]] = []
    nodes = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("instant"):
                blocks.append((float(line.split()[1]), []))
            elif line.startswith("nodes"):
                nodes = int(line.split()[1])
            elif line[:1].isdigit() and blocks:
                i, j, weight = line.split()
                blocks[-1][1].append((int(i) - 1, int(j) - 1, float(weight)))
    size = nodes or 0
    snapshots = []
    for instant, entries in blocks:
        table = np.array(entries, dtype=float).reshape(-1, 3)
        index = table[:, :2].astype(np.int64)
        snapshots.append((instant, sparse.csr_array(
            (table[:, 2], (index[:, 0], index[:, 1])), shape=(size, size))))
    return nodes, snapshots


def ingested_network(network: tuple, tallies: dict, step_days: int) -> list[str]:
    """Per instant block: its instant, entry count and weight total match the stream.

    ``network`` is what :func:`read_network` returns for the written file.
    """
    nodes, blocks = network
    problems = []
    if nodes != tallies["n"]:
        problems.append(f"network has {nodes} nodes, generated {tallies['n']}")
    expected = tallies["per_instant"]
    if len(blocks) != len(expected):
        return problems + [f"network has {len(blocks)} instants, expected {len(expected)}"]
    for k, ((instant, snapshot), (want_entries, want_weight)) in \
            enumerate(zip(blocks, expected)):
        entries, weight = snapshot.nnz, float(snapshot.data.sum())
        if instant != k * step_days:
            problems.append(f"instant {k + 1} is {instant}, expected {k * step_days}")
        if entries != want_entries or weight != want_weight:
            problems.append(f"instant {k + 1}: {entries} entries of weight {weight}, "
                            f"generated {want_entries} of weight {want_weight}")
    return problems


def taus(path: str, instants: list[float], label: str) -> list[str]:
    """One finite tau in [-1, 1] per instant, on the expected grid."""
    problems: list[str] = []
    rows = _rows(path, 3, problems)
    if [float(row[0]) for row in rows] != instants:
        problems.append(f"tau instants differ from the grid {instants[:3]}...")
    for row in rows:
        tau = float(row[1])
        if not (math.isfinite(tau) and -1.0 <= tau <= 1.0):
            problems.append(f"tau {row[1]} at instant {row[0]} outside [-1, 1]")
        if row[2] != label:
            problems.append(f"pair label {row[2]!r}, expected {label!r}")
    return problems


def bounds(path: str, blocks: list, nodes: list[int], rate: float, damping: float,
           tol: float) -> list[str]:
    """One row per (instant, node), within 2 * tol of a GMRES reference.

    ``blocks`` are the network's (instant, snapshot) pairs.  At each
    instant the accumulated matrix is built here with scipy, and column
    ``node`` of X = (1 - damping)(Id - damping M)^{-1} is solved by GMRES
    (zero rows of M patched with the uniform vector).  lo is the column
    minimum and hi its diagonal entry.  The minimum is exactly 0 when some
    node cannot reach ``node``, so the check compares values instead of
    requiring lo > 0.  The program's series is cut at a componentwise
    error of tol.
    """
    problems: list[str] = []
    rows = _rows(path, 4, problems)
    expected = [(t, node) for t, _ in blocks for node in nodes]
    if [(float(row[0]), int(row[1])) for row in rows] != expected:
        return problems + ["localize rows differ from the (instant, node) grid"]
    for k, (t, _) in enumerate(blocks):
        accumulated = sparse.csr_array(blocks[0][1].shape)
        for s, snapshot in blocks[:k + 1]:
            accumulated = accumulated + math.exp(-rate * (t - s)) * snapshot
        columns = _resolvent_columns(accumulated, damping, [node - 1 for node in nodes])
        for m, node in enumerate(nodes):
            row = rows[k * len(nodes) + m]
            lo, hi = float(row[2]), float(row[3])
            want_lo, want_hi = float(columns[:, m].min()), float(columns[node - 1, m])
            if not (lo <= hi and abs(lo - want_lo) <= 2 * tol
                    and abs(hi - want_hi) <= 2 * tol):
                problems.append(f"bounds {row[2]}..{row[3]} at {row[0]}, node {node}; "
                                f"reference {want_lo!r}..{want_hi!r}")
    return problems


def _scores(path: str, n: int, instants: list[float], problems: list) -> dict:
    """Rank vectors by instant index, after checking the row layout."""
    rows = _rows(path, 3, problems)
    if len(rows) != n * len(instants):
        problems.append(f"{len(rows)} score rows, expected {n * len(instants)}")
        return {}
    vectors = {}
    for k, t in enumerate(instants):
        block = rows[k * n:(k + 1) * n]
        if any(float(row[0]) != t for row in block) or \
                [int(row[1]) for row in block] != list(range(1, n + 1)):
            problems.append(f"score rows of instant {t} are out of order")
            return {}
        vectors[k] = np.array([float(row[2]) for row in block])
    return vectors


def _transition(accumulated) -> tuple[sparse.csr_array, np.ndarray]:
    """Row-stochastic transition matrix of ``accumulated`` and its zero-row mask."""
    accumulated = sparse.csr_array(accumulated)
    sums = np.asarray(accumulated.sum(axis=1)).ravel()
    scale = np.divide(1.0, sums, out=np.zeros(len(sums)), where=sums > 0)
    return sparse.csr_array(sparse.diags_array(scale) @ accumulated), sums == 0


def _resolvent_columns(accumulated, damping: float, columns: list[int]) -> np.ndarray:
    """Columns of (1 - damping)(Id - damping M)^{-1}, solved by GMRES.

    M is the transition matrix with its zero rows replaced by the uniform
    vector, applied as a sparse product plus a rank-one term.
    """
    transition, dangling = _transition(accumulated)
    n = transition.shape[0]
    operator = splinalg.LinearOperator(
        (n, n), dtype=float, matvec=lambda x: x - damping * (
            transition @ x + dangling * (x.sum() / n)))
    solved = np.zeros((n, len(columns)))
    for m, column in enumerate(columns):
        rhs = np.zeros(n)
        rhs[column] = 1.0
        solved[:, m], info = splinalg.gmres(operator, rhs, rtol=1e-14, atol=0.0,
                                            restart=50, maxiter=100)
        if info != 0:
            raise ValueError(f"reference solve for column {column} did not converge")
    return (1.0 - damping) * solved


def _residual(accumulated, x: np.ndarray, damping: float) -> float:
    """|| G^T x - x ||_1 for the Google matrix of ``accumulated``, uniform v = u."""
    transition, dangling = _transition(accumulated)
    v = np.full(len(x), 1.0 / len(x))
    image = damping * (transition.T @ x + float(x[dangling].sum()) * v) \
        + (1.0 - damping) * x.sum() * v
    return float(np.abs(image - x).sum())


def fixed_points(vectors: dict, matrices: dict, damping: float, bound: float) -> list[str]:
    """Sampled rank vectors are probability vectors with a small fixed-point residual."""
    problems = []
    for k, x in vectors.items():
        if (x <= 0).any() or abs(x.sum() - 1.0) > 1e-9:
            problems.append(f"instant {k + 1}: scores are not a positive unit vector")
            continue
        residual = _residual(matrices[k], x, damping)
        if not residual <= bound:
            problems.append(f"instant {k + 1}: residual {residual:.3e} above {bound:.1e}")
    return problems


def churn_trajectory(path: str, arrays: dict, rate: float, damping: float,
                     tol: float, sample: list[int]) -> list[str]:
    """Sampled instants of `compute` on the churn network meet the power bound.

    Power iteration stops once successive iterates differ by at most tol
    in the 1-norm, which bounds the returned vector's residual by
    damping * tol; the check allows 2 * tol for rounding.
    """
    targets, weights = arrays["targets"], arrays["weights"]
    count, n, degree = targets.shape
    problems: list[str] = []
    vectors = _scores(path, n, [float(k) for k in range(count)], problems)
    if problems:
        return problems
    rows = np.repeat(np.arange(n), degree)
    snapshots = [sparse.csr_array((weights.ravel().astype(float),
                                   (rows, targets[k].ravel())), shape=(n, n))
                 for k in range(count)]
    matrices = {k: sum((math.exp(-rate * (k - l)) * snapshots[l] for l in range(k + 1)),
                       sparse.csr_array((n, n)))
                for k in sample}
    return fixed_points({k: vectors[k] for k in sample}, matrices, damping, 2 * tol)


#: the paper-synthetic preset, written out independently of temporank
SYNTHETIC_EDGES = {
    (0, 1): lambda t: 0.5 * (math.sin(2 * math.pi * t) + 1),
    (0, 3): lambda t: 0.5 * (math.cos(2 * math.pi * t) + 1),
    (1, 2): lambda t: 1 - (t - 1) ** 2,
    (1, 4): lambda t: t ** 2,
    (2, 3): lambda t: (math.exp(t) - 1) / math.e,
    (2, 4): lambda t: 0.5,
}


def _synthetic_accumulated(t: float, rate: float) -> np.ndarray:
    matrix = np.zeros((5, 5))
    for (i, j), fn in SYNTHETIC_EDGES.items():
        if t == 0.0:
            value = fn(0.0)               # pointwise adjacency at the left end
        else:
            value = integrate.quad(lambda s: math.exp(-rate * (t - s)) * fn(s), 0.0, t,
                                   epsabs=1e-13, epsrel=1e-13)[0]
        matrix[i, j] = matrix[j, i] = value
    return matrix


def synthetic_trajectory(path: str, count: int, rate: float, damping: float,
                         sample: list[int]) -> list[str]:
    """Sampled instants of `compute --preset paper-synthetic` are fixed points.

    The accumulated matrices come from scipy quadrature.  The program
    integrates to 1e-10 absolute per edge, so the residual allows 1e-7.
    """
    instants = [float(t) for t in np.arange(count) / (count - 1)]
    problems: list[str] = []
    vectors = _scores(path, 5, instants, problems)
    if problems:
        return problems
    matrices = {k: _synthetic_accumulated(instants[k], rate) for k in sample}
    return fixed_points({k: vectors[k] for k in sample}, matrices, damping, 1e-7)


def convergence(path: str, sizes: list[int]) -> list[str]:
    """Every size has its rows, errors are finite, and the worst error falls with N."""
    problems: list[str] = []
    rows = _rows(path, 4, problems)
    worst: dict[int, float] = {}
    counts: dict[int, int] = {}
    for row in rows:
        size, error = int(row[0]), float(row[3])
        if not (math.isfinite(error) and error >= 0):
            problems.append(f"error {row[3]} at size {size}")
        worst[size] = max(worst.get(size, 0.0), error)
        counts[size] = counts.get(size, 0) + 1
    if counts != {size: 5 * size for size in sizes}:
        problems.append(f"rows per size {counts}, expected 5 per instant")
        return problems
    errors = [worst[size] for size in sizes]
    if not all(later < earlier for earlier, later in zip(errors, errors[1:])):
        problems.append(f"worst error does not fall with N: {errors}")
    return problems


def grid_days(step_days: int, days: int) -> list[float]:
    return [float(k * step_days) for k in range(days // step_days + 1)]

