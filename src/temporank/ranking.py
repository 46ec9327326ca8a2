"""Rank comparison: Kendall tau-b and per-instant trajectory agreement.

The coefficient is the tie-corrected tau-b,

    tau = (C - D) / sqrt((n0 - T_x) * (n0 - T_y)),

with C/D the concordant/discordant pair counts, n0 = n(n-1)/2 and
T_x/T_y the tie-pair counts of each vector.  tau-b is 1 exactly when the
two weak orders coincide, ties included, and -1 for opposite strict
orders; the plain untied variant cannot reach 1 in the presence of ties.
Discordances are counted by merge sort (Knight 1966), one whole merge
level at a time, so a comparison costs O(n log^2 n) in array operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, UndefinedTauError
from .graph import _coerced
from .pagerank import PageRankTrajectory

__all__ = ["TauSeries", "kendall_tau", "compare_trajectories"]


@dataclass(frozen=True)
class TauSeries:
    """Kendall tau-b between two trajectories at each shared instant."""

    instants: np.ndarray
    taus: np.ndarray
    labels: tuple[str, str]

    def __post_init__(self):
        if self.instants.shape != self.taus.shape:
            raise InvalidInputError("instants and taus must align")


def _tie_pairs(changes: np.ndarray) -> int:
    """Pairs inside runs of equal entries of a sorted sequence.

    ``changes[i]`` is True where entry i + 1 differs from entry i.
    """
    bounds = np.concatenate(([0], np.flatnonzero(changes) + 1, [changes.size + 1]))
    runs = np.diff(bounds)
    return int((runs * (runs - 1) // 2).sum())


def _inversions(ranks: np.ndarray, n_ranks: int) -> int:
    """Pairs i < j with ranks[i] > ranks[j], for integer ranks in [0, n_ranks).

    Bottom-up merge sort.  While every block of ``width`` entries is sorted,
    the key ``block * n_ranks + rank`` is sorted over the whole array, so
    one ``searchsorted`` finds, for every entry of an odd block, how many
    entries of the block before it are <= it; the others are its
    inversions.  Halving the block numbers and sorting the keys once
    merges the level.
    """
    n = ranks.size
    position = np.arange(n, dtype=np.int64)
    keys = position * n_ranks + ranks
    inversions = 0
    width = 1
    while width < n:
        block = position // width
        odd = (block & 1) == 1
        not_above = (np.searchsorted(keys, keys[odd] - n_ranks, side="right")
                     - (block[odd] - 1) * width)
        inversions += int(odd.sum()) * width - int(not_above.sum())
        keys -= (block - block // 2) * n_ranks
        keys.sort()
        width *= 2
    return inversions


def _as_scores(values, name: str) -> np.ndarray:
    arr = _coerced(f"{name} must be a sequence of numbers", np.asarray, values, float).ravel()
    if arr.size < 2:
        raise InvalidInputError(f"{name} needs at least 2 entries, got {arr.size}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def kendall_tau(x, y) -> float:
    """Kendall tau-b between two equally long score vectors.

    Only the order of the scores matters, so discordances are counted on
    integer dense ranks.  Raises
    :class:`UndefinedTauError` when either vector is entirely tied (the
    denominator vanishes and no order comparison is possible).
    """
    x = _as_scores(x, "x")
    y = _as_scores(y, "y")
    if x.size != y.size:
        raise InvalidInputError(f"length mismatch: {x.size} vs {y.size}")
    n = x.size
    order = np.lexsort((y, x))
    xs = x[order]
    ys = y[order]
    # after the lexicographic sort, y is ascending inside each run of tied
    # x, so every remaining y-inversion crosses strictly increasing x and
    # is exactly one discordant pair
    x_changes = xs[1:] != xs[:-1]
    t_x = _tie_pairs(x_changes)
    t_xy = _tie_pairs(x_changes | (ys[1:] != ys[:-1]))
    _, ranks, counts = np.unique(ys, return_inverse=True, return_counts=True)
    discordant = _inversions(ranks, counts.size)
    t_y = int((counts * (counts - 1) // 2).sum())
    n0 = n * (n - 1) // 2
    if n0 == t_x or n0 == t_y:
        raise UndefinedTauError(
            "tau is undefined: at least one input is entirely tied")
    concordant_minus_discordant = n0 - t_x - t_y + t_xy - 2 * discordant
    # the product can exceed 2**63 for large n, so take it in floats
    return concordant_minus_discordant / math.sqrt(float(n0 - t_x) * float(n0 - t_y))


def compare_trajectories(a: PageRankTrajectory, b: PageRankTrajectory,
                         labels: tuple[str, str] | None = None) -> TauSeries:
    """Per-instant tau-b between two trajectories on the same grid.

    Instants must match exactly.  Labels default to each trajectory's
    ``label`` metadata, falling back to "a" and "b".
    """
    if a.n != b.n:
        raise InvalidInputError(f"node count mismatch: {a.n} vs {b.n}")
    if not np.array_equal(a.instants, b.instants):
        raise InvalidInputError("trajectories are sampled at different instants")
    if labels is None:
        labels = (str(a.metadata.get("label", "a")), str(b.metadata.get("label", "b")))
    taus = np.array([kendall_tau(a.vectors[k], b.vectors[k])
                     for k in range(len(a.instants))])
    return TauSeries(np.asarray(a.instants, dtype=float), taus, labels)
