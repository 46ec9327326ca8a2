"""Adaptive Gauss-Kronrod quadrature of vector-valued integrands."""

import math
import warnings

import numpy as np
import pytest

from temporank import IntegrationError, QuadratureConfig, adaptive_simpson


def scalar(fn):
    """A one-component integrand: fn over the points as a (1, points) array."""
    return lambda s: fn(s)[None, :]


def test_exponential_integral():
    value = adaptive_simpson(scalar(np.exp), [0.0, 1.0])[0, 0]
    assert value == pytest.approx(math.e - 1.0, abs=1e-10)


def test_cubic_is_exact():
    # Gauss-Kronrod integrates cubics exactly, so no subdivision is needed
    value = adaptive_simpson(scalar(lambda s: 3.0 * s * s + 2.0 * s), [0.0, 1.0])[0, 0]
    assert value == pytest.approx(2.0, abs=1e-14)


def test_oscillatory_integral():
    value = adaptive_simpson(scalar(lambda s: np.sin(2.0 * math.pi * s)), [0.0, 1.0])[0, 0]
    assert value == pytest.approx(0.0, abs=1e-10)


def test_empty_interval():
    assert np.array_equal(adaptive_simpson(scalar(np.exp), [2.0, 2.0]), np.zeros((1, 1)))


def test_decayed_edge_weight():
    # e^{-(1-s)} * 0.5 over [0, 1] = 0.5 * (1 - e^{-1})
    value = adaptive_simpson(scalar(lambda s: np.exp(-(1.0 - s)) * 0.5), [0.0, 1.0])[0, 0]
    assert value == pytest.approx(0.5 * (1.0 - math.exp(-1.0)), abs=1e-10)


def test_tight_tolerance():
    config = QuadratureConfig(tol=1e-13)
    value = adaptive_simpson(scalar(lambda s: np.exp(-4.0 * s)), [0.0, 1.0], config)[0, 0]
    assert value == pytest.approx((1.0 - math.exp(-4.0)) / 4.0, abs=1e-12)


def test_subdivision_budget_exhaustion_names_the_edge():
    config = QuadratureConfig(tol=1e-15, max_subdivisions=4)
    with pytest.raises(IntegrationError, match=r"edge \(2, 5\)"):
        adaptive_simpson(lambda s: np.array([np.exp(s), np.sin(40.0 * s) * np.exp(s)]),
                         [0.0, 10.0], config, labels=["edge (1, 2)", "edge (2, 5)"])


def test_excess_beyond_float_range_fails_cleanly():
    config = QuadratureConfig(tol=1e-300, max_subdivisions=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="did not converge"):
            adaptive_simpson(scalar(lambda s: 1e200 * np.sin(40.0 * s)), [0.0, 1.0], config)


def test_one_component_drives_the_refinement():
    # the cubic is exact on one panel per piece, the peak at 0.3 is not:
    # the panels bisected for the peak keep the cubic exact too
    evaluated = []

    def fn(s):
        evaluated.append(s.size)
        return np.array([s ** 3, 1.0 / (1e-4 + (s - 0.3) ** 2)])

    config = QuadratureConfig(tol=1e-10)
    got = adaptive_simpson(fn, [0.0, 0.5, 1.0], config)
    assert got.shape == (2, 2)
    assert got[0] == pytest.approx([0.5 ** 4 / 4, (1.0 - 0.5 ** 4) / 4], abs=1e-15)
    peak = [(math.atan(0.2 / 1e-2) + math.atan(0.3 / 1e-2)) / 1e-2,
            (math.atan(0.7 / 1e-2) - math.atan(0.2 / 1e-2)) / 1e-2]
    assert np.abs(got[1] - peak).max() <= config.tol
    assert evaluated[0] == 2 * 15 and len(evaluated) > 1
