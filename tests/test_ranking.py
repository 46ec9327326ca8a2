"""Kendall tau-b and trajectory comparison."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from temporank import (
    ConstantDamping,
    ExponentialDecay,
    InputPersonalization,
    InvalidInputError,
    PageRankTrajectory,
    UndefinedTauError,
    UniformPersonalization,
    compare_trajectories,
    kendall_tau,
    synthetic_five_node,
    trajectory_discrete,
    truncate,
)
from temporank.ranking import _inversions


def count_inversions(y):
    _, ranks, counts = np.unique(np.asarray(y, dtype=float),
                                 return_inverse=True, return_counts=True)
    return _inversions(ranks, counts.size)


class TestInversions:
    def test_known_counts(self):
        assert count_inversions([3.0, 1.0, 2.0, 1.0]) == 4
        assert count_inversions([1.0, 2.0, 3.0]) == 0
        assert count_inversions([3.0, 2.0, 1.0]) == 3
        assert count_inversions([2.0, 2.0, 2.0]) == 0

    def test_tiny_inputs(self):
        assert count_inversions([]) == 0
        assert count_inversions([5.0]) == 0

    def test_preserves_input(self, rng):
        ranks = rng.integers(0, 7, size=50)
        original = ranks.copy()
        assert _inversions(ranks, 7) == oracles.brute_inversions(ranks)
        np.testing.assert_array_equal(ranks, original)

    def test_random_against_brute_force(self, rng):
        for trial in range(300):
            y = oracles.tie_bearing_vector(rng, int(rng.integers(0, 300)))
            count = count_inversions(y)
            assert count == oracles.brute_inversions(y)
            assert count == oracles.merge_count_inversions(y)

    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=60))
    def test_property_matches_brute_force(self, values):
        assert count_inversions(values) == oracles.brute_inversions(values)


class TestKendallTau:
    def test_identical_rankings(self):
        assert kendall_tau([0.1, 0.5, 0.4], [0.1, 0.5, 0.4]) == 1.0

    def test_reversed_rankings(self):
        assert kendall_tau([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_four_item_hand_count(self):
        # against ascending x the y-values (2,1,4,3) have C=4, D=2
        assert kendall_tau([1, 2, 3, 4], [2, 1, 4, 3]) == 1.0 / 3.0

    def test_ties_still_give_one_for_coinciding_weak_orders(self):
        x = [1.0, 1.0, 2.0, 3.0, 3.0]
        y = [5.0, 5.0, 7.0, 9.0, 9.0]
        assert kendall_tau(x, y) == 1.0

    def test_matches_pair_enumeration_exactly(self, rng):
        for _ in range(200):
            length = int(rng.integers(2, 120))
            x = oracles.tie_bearing_vector(rng, length)
            y = oracles.tie_bearing_vector(rng, length)
            try:
                expected = oracles.pair_tau(x, y)
            except ZeroDivisionError:
                with pytest.raises(UndefinedTauError):
                    kendall_tau(x, y)
                continue
            assert kendall_tau(x, y) == expected

    def test_symmetry_is_exact(self, rng):
        for _ in range(100):
            length = int(rng.integers(2, 80))
            x = oracles.tie_bearing_vector(rng, length)
            y = oracles.tie_bearing_vector(rng, length)
            try:
                forward = kendall_tau(x, y)
            except UndefinedTauError:
                continue
            assert forward == kendall_tau(y, x)

    @given(seed=st.integers(0, 2 ** 32 - 1), length=st.integers(2, 120))
    def test_relabelling_is_exact(self, seed, length):
        rng = np.random.default_rng(seed)
        x = oracles.tie_bearing_vector(rng, length)
        y = oracles.tie_bearing_vector(rng, length)
        perm = rng.permutation(length)
        try:
            base = kendall_tau(x, y)
        except UndefinedTauError:
            with pytest.raises(UndefinedTauError):
                kendall_tau(x[perm], y[perm])
            return
        assert kendall_tau(x[perm], y[perm]) == base

    def test_monotone_map_invariance_is_exact(self, rng):
        # maps chosen to be exact in float64 on small integers, so the
        # order is provably unchanged and tau must not move a bit
        maps = (lambda v: 3.0 * v + 7.0, lambda v: v ** 3, lambda v: v / 2.0)
        for _ in range(50):
            length = int(rng.integers(2, 60))
            x = rng.integers(-50, 50, size=length).astype(float)
            y = oracles.tie_bearing_vector(rng, length)
            try:
                base = kendall_tau(x, y)
            except UndefinedTauError:
                continue
            for fn in maps:
                assert kendall_tau(fn(x), y) == base

    def test_range(self, rng):
        for _ in range(100):
            length = int(rng.integers(2, 60))
            try:
                tau = kendall_tau(oracles.tie_bearing_vector(rng, length),
                                  oracles.tie_bearing_vector(rng, length))
            except UndefinedTauError:
                continue
            assert -1.0 <= tau <= 1.0

    def test_one_iff_weak_orders_coincide(self, rng):
        for _ in range(50):
            length = int(rng.integers(3, 60))
            x = oracles.tie_bearing_vector(rng, length)
            if np.unique(x).size < 2:
                continue
            # same weak order: monotone relabeling of the sorted positions
            assert kendall_tau(x, 2.0 * x + 1.0) == 1.0
            # break one tie or flip one pair: no longer the same weak order
            y = x.copy()
            i, j = np.argsort(x)[[0, -1]]
            y[i], y[j] = y[j], y[i]
            assert kendall_tau(x, y) < 1.0

    def test_all_tied_input_is_undefined(self):
        with pytest.raises(UndefinedTauError):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedTauError):
            kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            kendall_tau([1.0], [2.0])
        with pytest.raises(InvalidInputError):
            kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidInputError):
            kendall_tau([1.0, np.nan], [1.0, 2.0])


class TestCompareTrajectories:
    def make(self, vectors, instants=None, label=None):
        vectors = np.asarray(vectors, dtype=float)
        instants = np.arange(len(vectors)) if instants is None else instants
        metadata = {} if label is None else {"label": label}
        return PageRankTrajectory(np.asarray(instants, float), vectors, metadata)

    def test_identical_trajectories_give_all_ones(self):
        traj = self.make([[0.2, 0.3, 0.5], [0.1, 0.4, 0.5]])
        series = compare_trajectories(traj, traj)
        assert np.array_equal(series.taus, np.ones(2))

    def test_opposite_order_gives_minus_one(self):
        a = self.make([[0.3, 0.7], [0.3, 0.7]])
        b = self.make([[0.4, 0.6], [0.6, 0.4]])
        series = compare_trajectories(a, b)
        assert list(series.taus) == [1.0, -1.0]

    def test_labels_default_to_metadata(self):
        a = self.make([[0.3, 0.7]], label="uniform")
        b = self.make([[0.3, 0.7]])
        assert compare_trajectories(a, b).labels == ("uniform", "b")
        assert compare_trajectories(a, b, labels=("x", "y")).labels == ("x", "y")

    def test_mismatched_instants_rejected(self):
        a = self.make([[0.3, 0.7]], instants=[0.0])
        b = self.make([[0.3, 0.7]], instants=[1.0])
        with pytest.raises(InvalidInputError):
            compare_trajectories(a, b)

    def test_mismatched_node_count_rejected(self):
        a = self.make([[0.3, 0.7]])
        b = self.make([[0.2, 0.3, 0.5]])
        with pytest.raises(InvalidInputError):
            compare_trajectories(a, b)

    def test_uniform_vs_input_regression_lock(self):
        # cross-checked against the pair-enumeration oracle at first computation
        net = truncate(synthetic_five_node(), 5)
        kernel = ExponentialDecay(1.0)
        damping = ConstantDamping(0.85)
        uniform = trajectory_discrete(net, kernel, damping, UniformPersonalization())
        by_input = trajectory_discrete(net, kernel, damping, InputPersonalization())
        series = compare_trajectories(uniform, by_input)
        locked = np.array([0.5555555555555556, 1.0, 1.0, 1.0, 1.0])
        assert np.abs(series.taus - locked).max() <= 1e-12
        for k in range(5):
            assert series.taus[k] == oracles.pair_tau(uniform.vectors[k],
                                                      by_input.vectors[k])
