"""Adaptive composite Simpson quadrature for smooth edge integrands."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IntegrationError

__all__ = ["QuadratureConfig", "adaptive_simpson"]


@dataclass(frozen=True)
class QuadratureConfig:
    """Absolute tolerance and the per-integral bisection budget.

    Trajectories with an exponential kernel integrate each stretch between
    consecutive grid instants once, with its share of ``tol``, so ``tol``
    bounds the accumulated integral at every grid instant (for rates >= 0);
    ``max_subdivisions`` is then the budget of each stretch.
    """

    tol: float = 1e-10
    max_subdivisions: int = 2 ** 16


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(fn, a: float, b: float, config: QuadratureConfig = QuadratureConfig(),
                     label: str | None = None) -> float:
    """Integrate ``fn`` over [a, b] to absolute tolerance ``config.tol``.

    Interval bisection with the standard |S2 - S1|/15 error estimate;
    raises :class:`IntegrationError` once ``config.max_subdivisions``
    bisections have been spent.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa = fn(a)
    fb = fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = _simpson(fa, fm, fb, b - a)
    # stack frames: (a, m, b, fa, fm, fb, previous Simpson value, tolerance)
    stack = [(a, m, b, fa, fm, fb, whole, config.tol)]
    total = 0.0
    splits = 0
    while stack:
        a0, m0, b0, f0, f1, f2, s0, tol = stack.pop()
        lm = 0.5 * (a0 + m0)
        rm = 0.5 * (m0 + b0)
        flm = fn(lm)
        frm = fn(rm)
        left = _simpson(f0, flm, f1, m0 - a0)
        right = _simpson(f1, frm, f2, b0 - m0)
        err = left + right - s0
        if abs(err) <= 15.0 * tol:
            total += left + right + err / 15.0
            continue
        splits += 1
        if splits > config.max_subdivisions:
            where = f" for {label}" if label else ""
            raise IntegrationError(
                f"quadrature did not converge within {config.max_subdivisions} "
                f"subdivisions{where} (interval [{a0:.6g}, {b0:.6g}])")
        half = 0.5 * tol
        stack.append((a0, lm, m0, f0, flm, f1, left, half))
        stack.append((m0, rm, b0, f1, frm, f2, right, half))
    return total
