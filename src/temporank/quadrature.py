"""Adaptive Gauss-Kronrod quadrature of vector-valued integrands over pieces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError

__all__ = ["QuadratureConfig", "adaptive_simpson"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and the bisection budget of one quadrature call.

    A panel of width w passes when every component's Kronrod-Gauss
    difference is at most ``tol * w / span``, so each piece gets its share
    of ``tol``.  ``max_subdivisions`` counts the bisections of the whole
    call, over all components and pieces, so it also bounds the live panels.
    """

    tol: float = 1e-10
    max_subdivisions: int = 2 ** 16


# Gauss-Kronrod 7-15 on [-1, 1]: the nonnegative Kronrod nodes, descending,
# and their weights; the 7 Gauss nodes are every other node from the second
_X = np.array([0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
               0.7415311855993945, 0.5860872354676911, 0.4058451513773972,
               0.20778495500789848, 0.0])
_WK = np.array([0.022935322010529224, 0.06309209262997856, 0.10479001032225019,
                0.14065325971552592, 0.1690047266392679, 0.19035057806478542,
                0.20443294007529889, 0.20948214108472782])
_NODES = np.concatenate((-_X, _X[-2::-1]))
_KRONROD = np.concatenate((_WK, _WK[-2::-1]))
_GAUSS = np.zeros(_NODES.size)
_GAUSS[1::2] = np.polynomial.legendre.leggauss(7)[1]


def adaptive_simpson(fn, breakpoints, config: QuadratureConfig = QuadratureConfig(),
                     labels=None) -> np.ndarray:
    """Integrals of the m components of ``fn`` over each piece, an (m, pieces) array.

    ``fn`` maps a 1-D array of points to an (m, points) array; piece k is
    [breakpoints[k], breakpoints[k + 1]], breakpoints ascending.  Each level
    of the breadth-first refinement calls ``fn`` once, on the nodes of every
    live panel; no node lies on a breakpoint.  A spent budget raises
    :class:`IntegrationError` naming the worst component (``labels[c]``).
    """
    points = np.asarray(breakpoints, dtype=float)
    piece = np.flatnonzero(points[1:] > points[:-1])
    a, b = points[piece], points[piece + 1]
    scale = (points[-1] - points[0]) / (2 * config.tol)
    total, bisections = None, 0
    while True:
        half = 0.5 * (b - a)
        values = fn(((a + half)[:, None] + half[:, None] * _NODES).ravel())
        values = values.reshape(len(values), a.size, _NODES.size)
        if total is None:
            total = np.zeros((len(values), points.size - 1))
        # |K15 - G7| over the panel's share tol * (b - a) / span (widths cancel)
        with np.errstate(over="ignore"):
            excess = np.abs(values @ (_KRONROD - _GAUSS)) * scale
        done = excess.max(axis=0, initial=0.0) <= 1.0
        np.add.at(total.T, piece[done], (values[:, done] @ _KRONROD * half[done]).T)
        if done.all():
            return total
        bisections += np.count_nonzero(~done)
        if bisections > config.max_subdivisions:
            worst, panel = np.unravel_index(np.argmax(excess), excess.shape)
            name = f"component {worst}" if labels is None else labels[worst]
            raise IntegrationError(
                f"quadrature did not converge within {config.max_subdivisions} "
                f"subdivisions for {name} (interval [{a[panel]:.6g}, {b[panel]:.6g}])")
        a, b, middle, piece = a[~done], b[~done], (a + half)[~done], piece[~done]
        a, b, piece = np.r_[a, middle], np.r_[middle, b], np.r_[piece, piece]
