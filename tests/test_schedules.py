"""Decay kernels, damping schedules, personalization schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import sparse

from temporank import (
    ConstantDamping,
    CustomDamping,
    CustomDecay,
    CustomPersonalization,
    ExponentialDecay,
    InputPersonalization,
    InvalidInputError,
    InverseInputPersonalization,
    LinearDamping,
    ScheduleRangeError,
    TabulatedPersonalization,
    UniformPersonalization,
    damping_at,
    kernel_eval,
    personalization_at,
)


class TestExponentialDecay:
    def test_half_life_weight(self):
        # rate 0.001 per day halves an interaction's weight over ~693 days
        kernel = ExponentialDecay(0.001)
        assert kernel_eval(kernel, 0.0, 693.147) == pytest.approx(0.5, abs=1e-3)

    def test_half_life_property(self):
        assert ExponentialDecay(0.001).half_life == pytest.approx(693.147, abs=1e-3)
        assert ExponentialDecay(-2.0).half_life is None
        assert ExponentialDecay(0.0).half_life is None

    def test_weight_one_at_equal_times(self):
        for rate in (-4.0, 0.0, 1.0, 6.0):
            assert kernel_eval(ExponentialDecay(rate), 3.5, 3.5) == 1.0

    def test_zero_for_future_interactions(self):
        assert kernel_eval(ExponentialDecay(1.0), 5.0, 3.0) == 0.0

    def test_negative_rate_grows_with_age(self):
        kernel = ExponentialDecay(-4.0)
        assert kernel_eval(kernel, 0.0, 1.0) == pytest.approx(math.exp(4.0))

    def test_vectorized_matches_scalar(self):
        kernel = ExponentialDecay(0.7)
        s = np.array([0.0, 1.0, 2.5, 4.0])
        out = kernel_eval(kernel, s, 2.5)
        expected = np.array([kernel_eval(kernel, si, 2.5) for si in s])
        assert np.array_equal(out, expected)

    def test_non_finite_times_rejected(self):
        kernel = ExponentialDecay(1.0)
        with pytest.raises(InvalidInputError):
            kernel_eval(kernel, math.nan, 1.0)
        with pytest.raises(InvalidInputError):
            kernel_eval(kernel, 0.0, math.inf)

    @given(st.floats(-2.0, 2.0), st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
    def test_semigroup(self, rate, times):
        s, u, t = sorted(times)
        kernel = ExponentialDecay(rate)
        lhs = kernel_eval(kernel, s, t)
        rhs = kernel_eval(kernel, s, u) * kernel_eval(kernel, u, t)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_custom_decay_cutoff_enforced():
    kernel = CustomDecay(lambda s, t: 7.0)
    assert kernel_eval(kernel, 1.0, 2.0) == 7.0
    assert kernel_eval(kernel, 2.0, 1.0) == 0.0


class TestDamping:
    def test_constant(self):
        assert damping_at(ConstantDamping(0.85), 3, 10) == 0.85

    def test_linear_endpoints_and_midpoint(self):
        schedule = LinearDamping(0.01, 0.99)
        assert damping_at(schedule, 1, 21) == pytest.approx(0.01, abs=1e-15)
        assert damping_at(schedule, 11, 21) == pytest.approx(0.50, abs=1e-15)
        assert damping_at(schedule, 21, 21) == pytest.approx(0.99, abs=1e-15)

    def test_custom_receives_instant_value(self):
        schedule = CustomDamping(lambda t: 0.1 + 0.01 * t)
        assert damping_at(schedule, 1, 3, t=5.0) == pytest.approx(0.15)

    def test_values_outside_open_interval_rejected(self):
        for bad in (0.0, 1.0, 1.2, -0.3, math.nan):
            with pytest.raises(ScheduleRangeError):
                damping_at(CustomDamping(lambda t, b=bad: b), 1, 1, t=0.0)

    @pytest.mark.parametrize("schedule", [ConstantDamping("0.85"), CustomDamping(lambda t: "0.85"),
                                          ConstantDamping(np.array(0.85))])
    def test_value_that_is_not_a_real_number_refused(self, schedule):
        # float() took the string and the 0-d array as 0.85
        with pytest.raises(InvalidInputError) as caught:
            damping_at(schedule, 1, 1, t=0.0)
        assert str(caught.value).startswith("damping must be a real number in (0, 1), got ")

    def test_index_out_of_range(self):
        with pytest.raises(InvalidInputError):
            damping_at(ConstantDamping(0.85), 0, 5)
        with pytest.raises(InvalidInputError):
            damping_at(ConstantDamping(0.85), 6, 5)

    @given(st.integers(1, 21))
    def test_linear_stays_in_open_interval(self, k):
        assert 0.0 < damping_at(LinearDamping(0.01, 0.99), k, 21) < 1.0


class TestPersonalization:
    def test_uniform(self):
        v = personalization_at(UniformPersonalization(), np.zeros((4, 4)))
        assert np.array_equal(v, np.full(4, 0.25))

    def test_input_recipe(self):
        # column sums (1, 2) -> raw (2, 3) -> normalized (0.4, 0.6)
        A = np.array([[0.0, 1.0], [1.0, 1.0]])
        v = personalization_at(InputPersonalization(), A)
        assert np.array_equal(v, np.array([0.4, 0.6]))

    def test_inverse_input_recipe(self):
        A = np.array([[0.0, 1.0], [1.0, 1.0]])
        v = personalization_at(InverseInputPersonalization(), A)
        assert v == pytest.approx(np.array([0.6, 0.4]), abs=1e-15)

    def test_sparse_adjacency_accepted(self):
        A = sparse.csr_array(np.array([[0.0, 1.0], [1.0, 1.0]]))
        v = personalization_at(InputPersonalization(), A)
        assert np.array_equal(v, np.array([0.4, 0.6]))

    def test_simplex_membership_on_random_adjacency(self, rng):
        schedules = (UniformPersonalization(), InputPersonalization(),
                     InverseInputPersonalization())
        for _ in range(50):
            n = int(rng.integers(1, 30))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
            for schedule in schedules:
                v = personalization_at(schedule, A)
                assert (v > 0).all()
                assert abs(v.sum() - 1.0) <= 1e-12

    def test_custom_evaluator_normalized(self):
        schedule = CustomPersonalization(lambda t: np.array([1.0, 3.0]))
        v = personalization_at(schedule, np.zeros((2, 2)), t=0.0)
        assert np.array_equal(v, np.array([0.25, 0.75]))

    def test_custom_nonpositive_rejected(self):
        schedule = CustomPersonalization(lambda t: np.array([1.0, 0.0]))
        with pytest.raises(ScheduleRangeError):
            personalization_at(schedule, np.zeros((2, 2)), t=0.0)

    def test_custom_wrong_shape_rejected(self):
        schedule = CustomPersonalization(lambda t: np.ones(3))
        with pytest.raises(ScheduleRangeError):
            personalization_at(schedule, np.zeros((2, 2)), t=0.0)

    def test_tabulated_per_instant(self):
        schedule = TabulatedPersonalization((np.array([1.0, 1.0]), np.array([3.0, 1.0])))
        v1 = personalization_at(schedule, np.zeros((2, 2)), k=1)
        v2 = personalization_at(schedule, np.zeros((2, 2)), k=2)
        assert np.array_equal(v1, np.array([0.5, 0.5]))
        assert np.array_equal(v2, np.array([0.75, 0.25]))
        with pytest.raises(InvalidInputError):
            personalization_at(schedule, np.zeros((2, 2)), k=3)

    def test_tabulated_single_row_reused(self):
        schedule = TabulatedPersonalization((np.array([1.0, 3.0]),))
        for k in (1, 5, 9):
            v = personalization_at(schedule, np.zeros((2, 2)), k=k)
            assert np.array_equal(v, np.array([0.25, 0.75]))
