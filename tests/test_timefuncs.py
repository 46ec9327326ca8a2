"""Expression parsing and evaluation for time-varying edge weights."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from temporank import InvalidInputError, TimeFunction
from temporank.timefuncs import parse


def test_constant_expression():
    fn = parse("0.5")
    assert fn(0.0) == 0.5
    assert fn(123.4) == 0.5


def test_vocabulary_expression_matches_math():
    fn = parse("0.5*(sin(2*pi*t)+1)")
    for t in (0.0, 0.25, 0.3, 1.0):
        assert fn(t) == pytest.approx(0.5 * (math.sin(2 * math.pi * t) + 1.0), abs=1e-15)


def test_exp_and_e_constant():
    fn = parse("(exp(t)-1)/e")
    assert fn(0.0) == 0.0
    assert fn(1.0) == pytest.approx((math.e - 1.0) / math.e, abs=1e-15)


def test_array_evaluation_matches_scalar():
    fn = parse("1-(t-1)**2")
    ts = np.linspace(0.0, 1.0, 17)
    out = fn(ts)
    assert out.shape == ts.shape
    assert np.array_equal(out, np.array([fn(float(t)) for t in ts]))


@pytest.mark.parametrize("t", [0.6587926808047674, np.array(0.6587926808047674)])
def test_scalar_has_the_bits_of_the_same_time_in_an_array(t):
    # numpy's power of a float64 scalar rounds (t - 0.5)**2 one ulp away from its power of an
    # array here
    fn = parse("(t - 0.5)**2")
    got = fn(t)
    assert np.shape(got) == np.shape(t)
    assert np.float64(got).tobytes() == fn(np.array([t, 0.0]))[0].tobytes()
    assert fn(np.zeros((2, 3))).shape == (2, 3)


def test_source_round_trip():
    src = "0.5*(cos(2*pi*t)+1)"
    assert parse(src).source == src


def test_unknown_name_rejected():
    with pytest.raises(InvalidInputError):
        parse("q + 1")


def test_unknown_function_rejected():
    with pytest.raises(InvalidInputError):
        parse("tan(t)")


def test_attribute_access_rejected():
    with pytest.raises(InvalidInputError):
        parse("t.__class__")


def test_call_of_non_name_rejected():
    with pytest.raises(InvalidInputError):
        parse("(sin)(t)()")


def test_syntax_error_rejected():
    with pytest.raises(InvalidInputError):
        parse("0.5*(sin(2*pi*t)+1")


def test_function_name_usable_only_in_call_position():
    # bare `sin` without a call is a name lookup, not a function reference
    with pytest.raises(InvalidInputError):
        parse("sin")


NON_FINITE_CONSTANTS = ["10.0^400*t", "2^5000*t", "1/0*t", "0^-1+t", "(-1)^0.5*t"]


@pytest.mark.parametrize("expression", NON_FINITE_CONSTANTS)
def test_constant_arithmetic_is_float64(expression):
    # overflow, division by zero and a fractional power of a negative number
    # give inf or nan, not a Python error or a complex number
    fn = parse(expression)
    with np.errstate(all="ignore"):
        values = fn(np.linspace(0.0, 1.0, 5))
        scalar = fn(0.5)
    assert values.dtype == np.float64
    assert not np.isfinite(values).any()
    assert not math.isfinite(scalar)


@pytest.mark.parametrize("expression,expected", [
    ("7/2*t", lambda t: 7 / 2 * t),
    ("2^10 + 3*t^2", lambda t: 2 ** 10 + 3 * t ** 2),
    ("-1e-3*t + 1/3", lambda t: -1e-3 * t + 1 / 3),
    ("0.5*(sin(2*pi*t)+1)", lambda t: 0.5 * (np.sin(2 * math.pi * t) + 1)),
])
def test_finite_constant_arithmetic_is_unchanged(expression, expected):
    ts = np.linspace(0.0, 1.0, 9)
    assert parse(expression)(ts).tobytes() == np.asarray(expected(ts), dtype=float).tobytes()


def test_wrapped_callable_has_no_source():
    fn = TimeFunction.from_callable(lambda t: 2.0 * t)
    assert fn.source is None
    assert fn(3.0) == 6.0
    assert np.array_equal(fn(np.array([1.0, 2.0])), np.array([2.0, 4.0]))


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@example(16.741644344612567)
def test_evaluation_is_pure(t):
    # t * t is the rounded square; Python's t ** 2 goes through libm pow,
    # which is an ulp off it at this example
    fn = parse("t**2 - t")
    assert fn(t) == fn(t) == t * t - t
