"""Google operator, solvers, and rank trajectories."""

import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    ContinuousTemporalNetwork,
    ConvergenceError,
    CustomDamping,
    CustomDecay,
    DiscreteTemporalNetwork,
    ExponentialDecay,
    GoogleOperator,
    InternalError,
    InvalidInputError,
    StochasticSnapshot,
    TemporankError,
    UniformPersonalization,
    bounds_trajectory,
    dumps_network,
    google_apply_transpose,
    loads_network,
    pagerank_direct,
    pagerank_power,
    row_normalize,
    synthetic_five_node,
    trajectory_continuous,
    trajectory_discrete,
    truncate,
)
from temporank import accumulate, cli, localization, pagerank
from temporank.quadrature import QuadratureConfig
from temporank.schedules import (CustomPersonalization, InputPersonalization,
                                 InverseInputPersonalization, LinearDamping,
                                 PersonalizationSchedule, TabulatedPersonalization, damping_at,
                                 personalization_at)
from temporank.timefuncs import parse
from test_accumulate import continuous_accumulated, instant_setups
from test_graph import EDGE_EXPRESSIONS, continuous_networks, zero_bearing_networks

TWO_NODE = np.array([[0.0, 1.0], [1.0, 1.0]])
HALF = np.array([0.5, 0.5])


def snapshot_of(A):
    return row_normalize(sparse.csr_array(np.asarray(A, dtype=float)))


def random_snapshot(rng, n, allow_dangling=True):
    A = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    if allow_dangling and rng.integers(0, 2):
        A[rng.integers(0, n), :] = 0.0
    return snapshot_of(A), A


class TestGoogleOperator:
    def test_transpose_apply_hand_value(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, HALF)
        out = google_apply_transpose(op, np.array([1.0, 0.0]))
        assert out == pytest.approx(np.array([0.075, 0.925]), abs=1e-15)

    def test_zero_maps_to_zero(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, HALF)
        assert np.array_equal(google_apply_transpose(op, np.zeros(2)), np.zeros(2))

    def test_fixed_point_is_fixed(self):
        snap = snapshot_of(TWO_NODE)
        pi = pagerank_direct(snap, 0.85, HALF)
        op = GoogleOperator(snap, 0.85, HALF)
        assert google_apply_transpose(op, pi) == pytest.approx(pi, abs=1e-12)

    def test_mass_preservation_means_row_stochastic(self, rng):
        # sum(G^T x) == sum(x) for all x iff every row of G sums to 1
        snap, _ = random_snapshot(rng, 12)
        op = GoogleOperator(snap, 0.7, oracles.random_simplex_vector(rng, 12))
        for _ in range(10):
            x = rng.normal(size=12)
            assert google_apply_transpose(op, x).sum() == pytest.approx(x.sum(), abs=1e-12)

    def test_matches_dense_google_matrix(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            snap, A = random_snapshot(rng, n)
            v = oracles.random_simplex_vector(rng, n)
            u = oracles.random_simplex_vector(rng, n)
            op = GoogleOperator(snap, 0.6, v, u)
            G = oracles.dense_google(A, 0.6, v, u)
            x = rng.normal(size=n)
            assert google_apply_transpose(op, x) == pytest.approx(G.T @ x, abs=1e-12)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
           density=st.floats(0.0, 1.0), dangling=st.booleans())
    def test_transpose_matches_scatter_add_bit_for_bit(self, seed, n, density, dangling):
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) * (rng.random((n, n)) < density)
        if dangling:
            A[rng.integers(0, n), :] = 0.0
        snap = snapshot_of(A)
        v = oracles.random_simplex_vector(rng, n)
        u = oracles.random_simplex_vector(rng, n)
        op = GoogleOperator(snap, 0.85, v, u)
        x = rng.normal(size=n)
        dangling_mass = float(x[snap.dangling == 1].sum())
        expected = (0.85 * (oracles.csr_t_matvec(snap.matrix, x) + dangling_mass * u)
                    + (1.0 - 0.85) * x.sum() * v)
        assert np.array_equal(google_apply_transpose(op, x), expected)

    def test_direct_solve_never_builds_the_transpose(self, rng, monkeypatch):
        def refuse(self):
            raise AssertionError("P^T built for a direct solve")

        monkeypatch.setattr(GoogleOperator, "transition_transposed", property(refuse))
        snap, A = random_snapshot(rng, 10)
        v = oracles.random_simplex_vector(rng, 10)
        pi = pagerank_direct(snap, 0.85, v)
        assert pi == pytest.approx(oracles.eig_pagerank(A, 0.85, v), abs=1e-10)

    def test_row_sums_checked_to_1e_12(self):
        snap = snapshot_of(np.ones((20, 20)))
        for scale, ok in ((1.0 + 1e-14, True), (1.0 + 1e-11, False)):
            scaled = StochasticSnapshot(snap.matrix * scale, snap.dangling, 0.0)
            if ok:
                GoogleOperator(scaled, 0.85, np.full(20, 0.05))
            else:
                with pytest.raises(InternalError):
                    GoogleOperator(scaled, 0.85, np.full(20, 0.05))

    def test_u_defaults_to_v(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, np.array([0.3, 0.7]))
        assert np.array_equal(op.u, op.v)

    def test_damping_range_checked(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidInputError):
                GoogleOperator(snapshot_of(TWO_NODE), bad, HALF)

    def test_personalization_checked(self):
        with pytest.raises(InvalidInputError):
            GoogleOperator(snapshot_of(TWO_NODE), 0.85, np.array([0.5, 0.6]))
        with pytest.raises(InvalidInputError):
            GoogleOperator(snapshot_of(TWO_NODE), 0.85, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                     [np.nan, np.nan, np.nan]])
    def test_non_finite_vectors_rejected(self, bad):
        snap = snapshot_of(np.ones((3, 3)))
        third = np.full(3, 1 / 3)
        for v, u in ((bad, None), (third, bad)):
            with pytest.raises(InvalidInputError, match="positive with unit 1-norm"):
                GoogleOperator(snap, 0.85, np.array(v), None if u is None else np.array(u))
            with pytest.raises(InvalidInputError, match="positive with unit 1-norm"):
                pagerank_direct(snap, 0.85, np.array(v), None if u is None else np.array(u))

    def test_nan_on_a_sampled_row_rejected(self):
        snap = snapshot_of(np.ones((3, 3)))
        snap.matrix.data[0] = np.nan
        with pytest.raises(InternalError, match="row sums"):
            GoogleOperator(snap, 0.85, np.full(3, 1 / 3))
        with pytest.raises(InternalError, match="row sums"):
            pagerank_direct(snap, 0.85, np.full(3, 1 / 3))

    def test_vector_shape_checked(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, HALF)
        with pytest.raises(InvalidInputError):
            google_apply_transpose(op, np.ones(3))
        with pytest.raises(InvalidInputError):
            google_apply_transpose(op, np.array([np.nan, 0.0]))


class TestSolvers:
    def test_two_node_hand_solve(self):
        pi = pagerank_direct(snapshot_of(TWO_NODE), 0.85, HALF)
        assert pi == pytest.approx(np.array([20.0, 37.0]) / 57.0, abs=1e-14)
        assert pi == pytest.approx(np.array([0.350877, 0.649123]), abs=1e-6)

    def test_two_cycle_symmetry(self):
        snap = snapshot_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for lam in (0.1, 0.5, 0.85, 0.99):
            assert pagerank_direct(snap, lam, HALF) == pytest.approx(HALF, abs=1e-14)

    def test_three_cycle_circulant(self):
        A = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        pi = pagerank_direct(snapshot_of(A), 0.85, np.full(3, 1 / 3))
        assert pi == pytest.approx(np.full(3, 1 / 3), abs=1e-14)

    def test_power_agrees_with_direct_and_eig(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 51))
            snap, A = random_snapshot(rng, n)
            lam = float(rng.uniform(0.05, 0.95))
            v = oracles.random_simplex_vector(rng, n)
            direct = pagerank_direct(snap, lam, v)
            power, iterations, residual = pagerank_power(
                GoogleOperator(snap, lam, v), tol=1e-13)
            assert iterations >= 1
            assert residual <= 1e-13
            assert np.abs(direct - power).max() <= 1e-10
            assert np.abs(direct - oracles.eig_pagerank(A, lam, v)).max() <= 1e-10

    def test_fixed_point_residual(self, rng):
        tol = 1e-12
        for _ in range(20):
            n = int(rng.integers(2, 30))
            snap, _ = random_snapshot(rng, n)
            v = oracles.random_simplex_vector(rng, n)
            op = GoogleOperator(snap, 0.85, v)
            for pi in (pagerank_direct(snap, 0.85, v),
                       pagerank_power(op, tol=tol)[0]):
                assert np.abs(google_apply_transpose(op, pi) - pi).sum() <= 10 * tol
                assert (pi > 0).all()
                assert abs(pi.sum() - 1.0) <= 1e-10

    def test_small_damping_stays_near_teleport(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            snap, _ = random_snapshot(rng, n)
            v = oracles.random_simplex_vector(rng, n)
            pi = pagerank_direct(snap, 0.01, v)
            assert np.abs(pi - v).sum() <= 0.02

    def test_nan_solve_result_rejected(self):
        # of 10 rows, 0 1 2 3 5 6 7 9 are sampled for the row-sum check
        snap = snapshot_of(np.ones((10, 10)))
        snap.matrix.data[snap.matrix.indptr[4]] = np.nan
        with pytest.raises(InternalError, match="simplex"):
            pagerank_direct(snap, 0.85, np.full(10, 0.1))

    def test_power_iteration_budget_exceeded(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, HALF)
        with pytest.raises(ConvergenceError) as info:
            pagerank_power(op, tol=1e-15, max_iter=2)
        assert info.value.residual > 0

    def test_bad_tolerance_rejected(self):
        op = GoogleOperator(snapshot_of(TWO_NODE), 0.85, HALF)
        with pytest.raises(InvalidInputError):
            pagerank_power(op, tol=0.0)


class TestTrajectoryDiscrete:
    def test_single_instant_reduces_to_static_pagerank(self, rng):
        A = rng.random((8, 8)) * (rng.random((8, 8)) < 0.5)
        net = DiscreteTemporalNetwork(8, np.array([2.0]), (A,))
        traj = trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   UniformPersonalization())
        static = pagerank_direct(snapshot_of(A), 0.85, np.full(8, 1 / 8))
        assert np.abs(traj.vectors[0] - static).max() <= 1e-12
        assert np.abs(traj.vectors[0] - oracles.eig_pagerank(A, 0.85, np.full(8, 1 / 8))).max() <= 1e-10

    def test_identical_snapshots_give_constant_trajectory(self, rng):
        A = rng.random((6, 6)) * (rng.random((6, 6)) < 0.6) + np.eye(6)
        net = DiscreteTemporalNetwork(6, np.array([0.0, 1.0, 2.0, 3.0]), (A,) * 4)
        traj = trajectory_discrete(net, CustomDecay(lambda s, t: 1.0),
                                   ConstantDamping(0.85), UniformPersonalization())
        spread = np.abs(traj.vectors - traj.vectors[0]).max()
        assert spread <= 1e-12

    def test_vectors_live_on_the_simplex(self, rng):
        net = DiscreteTemporalNetwork(
            5, np.array([0.0, 1.0]),
            tuple(rng.random((5, 5)) * (rng.random((5, 5)) < 0.5) for _ in range(2)))
        traj = trajectory_discrete(net, ExponentialDecay(0.5), ConstantDamping(0.85),
                                   UniformPersonalization())
        assert (traj.vectors > 0).all()
        assert np.abs(traj.vectors.sum(axis=1) - 1.0).max() <= 1e-10

    def test_solver_choice_does_not_change_the_answer(self):
        net = truncate(synthetic_five_node(), 5)
        kwargs = dict(kernel=ExponentialDecay(1.0), damping=ConstantDamping(0.85),
                      personalization=UniformPersonalization())
        direct = trajectory_discrete(net, solver="direct", **kwargs)
        power = trajectory_discrete(net, solver="power", **kwargs)
        assert np.abs(direct.vectors - power.vectors).max() <= 1e-10

    def test_unknown_solver_rejected(self):
        net = truncate(synthetic_five_node(), 2)
        with pytest.raises(InvalidInputError):
            trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                UniformPersonalization(), solver="cg")

    def test_threads_do_not_change_bits(self):
        net = truncate(synthetic_five_node(), 9)
        kwargs = dict(kernel=ExponentialDecay(1.0), damping=ConstantDamping(0.85),
                      personalization=UniformPersonalization())
        one = trajectory_discrete(net, threads=1, **kwargs)
        four = trajectory_discrete(net, threads=4, **kwargs)
        assert np.array_equal(one.vectors, four.vectors)

    def test_metadata_records_solver_work(self):
        net = truncate(synthetic_five_node(), 3)
        traj = trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   UniformPersonalization(), solver="power")
        assert traj.metadata["scale"] == "discrete"
        assert len(traj.metadata["iterations"]) == 3
        assert all(r <= 1e-12 for r in traj.metadata["residuals"])

    def test_network_without_instants_rejected(self):
        net = DiscreteTemporalNetwork(2, np.array([]), ())
        for solver in ("direct", "power"):
            with pytest.raises(InvalidInputError, match="no instants"):
                trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                    UniformPersonalization(), solver=solver)

    def test_network_without_nodes_fails_cleanly(self):
        # n = 0 must not reach a division by n**2 in the chunk size; bounds of
        # no node are empty
        kernel, damping = ExponentialDecay(1.0), ConstantDamping(0.85)
        net = DiscreteTemporalNetwork(0, np.array([0.0, 1.0]), (sparse.csr_array((0, 0)),) * 2)
        continuous = ContinuousTemporalNetwork(0, (0.0, 1.0), {})
        for solver in ("direct", "power"):
            with pytest.raises(TemporankError):
                trajectory_discrete(net, kernel, damping, UniformPersonalization(), solver=solver)
            with pytest.raises(TemporankError):
                trajectory_continuous(continuous, kernel, damping, UniformPersonalization(),
                                      [0.0, 1.0], solver=solver)
        for bounds in (bounds_trajectory(net, kernel, damping),
                       bounds_trajectory(continuous, kernel, damping, grid=[0.0, 0.5])):
            assert bounds.lo.shape == bounds.hi.shape == (2, 0)

    @pytest.mark.parametrize("threads", ["2", None, 2.5, -2, 0])
    def test_threads_checked_at_every_entry(self, threads):
        kernel, damping = ExponentialDecay(1.0), ConstantDamping(0.85)
        continuous = synthetic_five_node()
        net = truncate(continuous, 3)
        calls = [
            lambda: trajectory_discrete(net, kernel, damping, UniformPersonalization(),
                                        threads=threads),
            lambda: trajectory_continuous(continuous, kernel, damping,
                                          UniformPersonalization(), [0.0, 1.0], threads=threads),
            lambda: bounds_trajectory(net, kernel, damping, threads=threads)]
        for call in calls:
            with pytest.raises(InvalidInputError, match="^threads must be"):
                call()

    @pytest.mark.parametrize("solver", ["direct", "power"])
    @pytest.mark.parametrize("kwargs, message", [
        (dict(tol=math.nan), "^tolerance must be positive and finite, got nan$"),
        (dict(tol="x"), "^tolerance must be positive and finite, got x$"),
        (dict(max_iter="x"), "^max_iter must be an integer, got 'x'$"),
        (dict(max_iter=2.5), "^max_iter must be an integer, got 2.5$"),
        (dict(max_iter=-5), "^max_iter must be at least 1, got -5$"),
    ])
    def test_tol_and_max_iter_checked_where_a_trajectory_starts(self, solver, kwargs, message):
        kernel, damping = ExponentialDecay(1.0), ConstantDamping(0.85)
        continuous = synthetic_five_node()
        net = truncate(continuous, 3)
        calls = [
            lambda: trajectory_discrete(net, kernel, damping, UniformPersonalization(),
                                        solver=solver, **kwargs),
            lambda: trajectory_continuous(continuous, kernel, damping, UniformPersonalization(),
                                          [0.0, 1.0], solver=solver, **kwargs)]
        for call in calls:
            with pytest.raises(InvalidInputError, match=message):
                call()

    def test_threads_taken_as_an_index(self):
        net = truncate(synthetic_five_node(), 3)
        kwargs = dict(kernel=ExponentialDecay(1.0), damping=ConstantDamping(0.85))
        assert np.array_equal(
            trajectory_discrete(net, personalization=UniformPersonalization(),
                                threads=np.int64(2), **kwargs).vectors,
            trajectory_discrete(net, personalization=UniformPersonalization(), **kwargs).vectors)
        assert np.array_equal(bounds_trajectory(net, threads=np.int64(2), **kwargs).lo,
                              bounds_trajectory(net, **kwargs).lo)

    def test_vector_at_is_one_based(self):
        net = truncate(synthetic_five_node(), 3)
        traj = trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   UniformPersonalization())
        assert np.array_equal(traj.vector_at(1), traj.vectors[0])
        assert np.array_equal(traj.vector_at(3), traj.vectors[2])
        assert np.array_equal(traj.vector_at(np.int64(2)), traj.vectors[1])

    @pytest.mark.parametrize("k, message", [
        (0, "instant index 0 outside 1..3"), (-1, "instant index -1 outside 1..3"),
        (4, "instant index 4 outside 1..3"), (1.5, "instant index must be an integer"),
        ("1", "instant index must be an integer")])
    def test_vector_at_checks_its_index(self, k, message):
        # 0 and -1 used to wrap to the last instants; as snapshot_at and damping_at
        traj = trajectory_discrete(truncate(synthetic_five_node(), 3), ExponentialDecay(1.0),
                                   ConstantDamping(0.85), UniformPersonalization())
        with pytest.raises(InvalidInputError, match=re.escape(message)):
            traj.vector_at(k)

    def test_synthetic_truncation_regression_lock(self):
        # cross-checked at first computation against a dense eigensolver
        # (every instant) and against the continuous trajectory at N=101
        net = truncate(synthetic_five_node(), 5)
        traj = trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   UniformPersonalization())
        locked = np.array([
            [0.2918918918918919, 0.11270270270270272, 0.2,
             0.1954054054054054, 0.2],
            [0.2920383207821663, 0.21693303738513037, 0.19240194983003123,
             0.1609096059189234, 0.1377170860837487],
            [0.2311439543496053, 0.25894261455479933, 0.23555295268150234,
             0.1305132496837342, 0.1438472287303588],
            [0.18207412570186193, 0.2553749473735743, 0.259633151392997,
             0.14631213205540441, 0.15660564347616257],
            [0.17616325177155948, 0.25759016102493865, 0.24392914252451792,
             0.16258710390511913, 0.15973034077386483],
        ])
        assert np.abs(traj.vectors - locked).max() <= 1e-12

    def test_instant_one_weights_match_eigensolver(self, rng):
        # u = v by default also when dangling rows are present
        A = rng.random((7, 7)) * (rng.random((7, 7)) < 0.5)
        A[3, :] = 0.0
        net = DiscreteTemporalNetwork(7, np.array([0.0]), (A,))
        v = np.full(7, 1 / 7)
        traj = trajectory_discrete(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   UniformPersonalization())
        assert np.abs(traj.vectors[0] - oracles.eig_pagerank(A, 0.85, v)).max() <= 1e-10


class TestTrajectoryContinuous:
    def test_constant_edges_give_constant_trajectory(self):
        net = ContinuousTemporalNetwork(
            n=3, interval=(0.0, 2.0),
            edges={(0, 1): 0.75, (1, 2): 0.25, (2, 0): 1.5, (1, 0): 0.5})
        traj = trajectory_continuous(net, ExponentialDecay(1.3), ConstantDamping(0.85),
                                     UniformPersonalization(), grid=np.linspace(0.0, 2.0, 6))
        assert np.abs(traj.vectors - traj.vectors[0]).max() <= 1e-8

    def test_grid_start_uses_pointwise_convention(self):
        net = synthetic_five_node()
        traj = trajectory_continuous(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                     UniformPersonalization(), grid=[0.0])
        static = pagerank_direct(row_normalize(net.adjacency_at(0.0)), 0.85, np.full(5, 0.2))
        assert np.abs(traj.vectors[0] - static).max() <= 1e-12

    def test_metadata_scale(self):
        net = synthetic_five_node()
        traj = trajectory_continuous(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                     UniformPersonalization(), grid=[0.0, 0.5])
        assert traj.metadata["scale"] == "continuous"

    @pytest.mark.parametrize("grid", [[], [[0.0, 0.5]], "abc", [[0.0, 0.5], [0.25]]])
    def test_empty_or_nested_grid_rejected(self, grid):
        with pytest.raises(InvalidInputError, match="grid must be a non-empty 1-d sequence"):
            trajectory_continuous(synthetic_five_node(), ExponentialDecay(1.0),
                                  ConstantDamping(0.85), UniformPersonalization(), grid=grid)

    @pytest.mark.parametrize("entry", ["trajectory", "bounds", "setups"])
    def test_grid_with_a_discrete_network_rejected(self, entry):
        net = truncate(synthetic_five_node(), 5)
        kernel, damping, grid = ExponentialDecay(1.0), ConstantDamping(0.85), [0.0, 0.5]
        calls = {
            "trajectory": lambda: trajectory_continuous(net, kernel, damping,
                                                        UniformPersonalization(), grid=grid),
            "bounds": lambda: bounds_trajectory(net, kernel, damping, grid=grid),
            "setups": lambda: instant_setups(net, kernel, damping, grid=grid),
        }
        with pytest.raises(InvalidInputError, match="discrete network uses its own instants"):
            calls[entry]()


@st.composite
def discrete_problems(draw):
    """Random discrete networks with explicit zeros, dense and dangling rows, n up to 12.

    Some snapshots are CSR matrices as a library caller may build them,
    with the entries of a row out of column order and some weights split
    over two entries of the same pair.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 5))
    density = rng.uniform(0.1, 1.0)
    snapshots = []
    for _ in range(count):
        mask = rng.random((n, n)) < density
        mask[0] |= draw(st.booleans())           # a full row: n entries
        mask[rng.integers(0, n)] = False         # a zero row
        values = np.where(rng.random((n, n)) < 0.2, 0.0, rng.uniform(1e-3, 10.0, (n, n)))
        rows, cols = np.nonzero(mask)
        data = values[rows, cols]
        if draw(st.booleans()):
            split = np.flatnonzero(rng.random(rows.size) < 0.3)
            share = data[split] * rng.uniform(0.0, 1.0, split.size)
            data[split] -= share
            rows, cols = np.append(rows, rows[split]), np.append(cols, cols[split])
            data = np.append(data, share)
            shuffled = np.lexsort((rng.random(rows.size), rows))   # rows in order, columns not
            indptr = np.append(0, np.cumsum(np.bincount(rows, minlength=n)))
            matrix = sparse.csr_array((data[shuffled], cols[shuffled], indptr), shape=(n, n))
        else:
            matrix = sparse.csr_array((data, (rows, cols)), shape=(n, n))
        snapshots.append(matrix)
    instants = np.cumsum(rng.uniform(0.1, 1.0, count))
    return DiscreteTemporalNetwork(n, instants, snapshots), None


@st.composite
def continuous_problems(draw):
    """Random continuous networks with zero-valued and absent edges, dense and dangling rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 10))
    mask = rng.random((n, n)) < rng.uniform(0.1, 1.0)
    mask[0] |= draw(st.booleans())
    mask[rng.integers(0, n)] = False
    expressions = rng.choice(EDGE_EXPRESSIONS, size=(n, n))
    edges = {(int(i), int(j)): parse(str(expressions[i, j])) for i, j in zip(*np.nonzero(mask))}
    grid = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=12))
    return ContinuousTemporalNetwork(n, (0.0, 1.0), edges), np.array(grid)


def per_instant_vectors(net, kernel, damping, personalization, dangling_dist, grid):
    """Rank vectors in the caller's order: one normalization and one dense solve per instant."""
    if isinstance(net, DiscreteTemporalNetwork):
        setups = instant_setups(net, kernel, damping, personalization, dangling_dist)
        return [oracles.direct_pagerank(setup.snapshot.matrix, setup.snapshot.dangling,
                                        setup.damping, setup.v, setup.u) for setup in setups]
    order = np.argsort(grid, kind="stable")
    vectors = [None] * len(grid)
    accumulated = continuous_accumulated(net, kernel, grid[order], QuadratureConfig())
    for position, (t, values, _) in zip(order.tolist(), accumulated):
        k, adjacency = position + 1, oracles.coo_adjacency_at(net, t)
        matrix, dangling = oracles.row_normalize_csr(
            adjacency if t == net.t0 else oracles.coo_edge_matrix(net, values))
        v = personalization_at(personalization, adjacency, k, t)
        u = None
        if dangling_dist is not None and dangling.any():
            u = personalization_at(dangling_dist, adjacency, k, t)
        vectors[position] = oracles.direct_pagerank(
            matrix, dangling, damping_at(damping, k, len(grid), t), v, u)
    return vectors


class TestStackedDirectPath:
    @pytest.mark.parametrize("threads", [1, 2, 3])
    @settings(max_examples=30)
    @given(problem=discrete_problems() | continuous_problems(), rate=st.floats(-2.0, 4.0),
           personalization=st.sampled_from([UniformPersonalization(), InputPersonalization(),
                                            InverseInputPersonalization()]),
           dangling_dist=st.sampled_from([None, InputPersonalization(),
                                          InverseInputPersonalization()]),
           entries=st.sampled_from([1, 30, 100, 2 ** 20]))
    def test_matches_per_instant_solves_bit_for_bit(self, threads, problem, rate,
                                                    personalization, dangling_dist, entries):
        # a chunk holds max(1, entries // n**2) instants, so small values cut
        # the grid into many
        net, grid = problem
        kernel, damping = ExponentialDecay(rate), LinearDamping(0.3, 0.9)
        with mock.patch.object(accumulate, "_CHUNK_ENTRIES", entries):
            if grid is None:
                trajectory = trajectory_discrete(net, kernel, damping, personalization,
                                                 dangling_dist, threads=threads)
            else:
                trajectory = trajectory_continuous(net, kernel, damping, personalization, grid,
                                                   dangling_dist=dangling_dist, threads=threads)
        expected = per_instant_vectors(net, kernel, damping, personalization, dangling_dist,
                                       grid)
        assert trajectory.vectors.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    @settings(max_examples=30)
    @given(problem=discrete_problems() | continuous_problems(), rate=st.floats(-1.0, 3.0),
           custom=st.booleans(),
           dangling_dist=st.sampled_from([None, UniformPersonalization(),
                                          InputPersonalization()]),
           subset=st.booleans(), entries=st.sampled_from([1, 30, 2 ** 20]))
    def test_bounds_match_per_instant_resolvents_bit_for_bit(self, threads, problem, rate,
                                                             custom, dangling_dist, subset,
                                                             entries):
        # the reference densifies each instant's CSR snapshot, patches its
        # dangling rows with u and solves it alone; an instant with dangling
        # rows and no u must fail, naming the first such instant
        net, grid = problem
        kernel = CustomDecay(lambda s, t: math.exp(-rate * (t - s))) if custom \
            else ExponentialDecay(rate)
        damping = LinearDamping(0.3, 0.9)
        nodes = [net.n - 1, 0] if subset else list(range(net.n))
        setups = list(instant_setups(net, kernel, damping, dangling_dist=dangling_dist,
                                    grid=grid))
        missing = [setup.k for setup in setups
                   if setup.snapshot.dangling.any() and setup.u is None]
        with mock.patch.object(accumulate, "_CHUNK_ENTRIES", entries):
            def bounds():
                return bounds_trajectory(net, kernel, damping, nodes=nodes if subset else None,
                                         grid=grid, dangling_dist=dangling_dist,
                                         threads=threads)
            if missing:
                with pytest.raises(InvalidInputError,
                                   match=f"dangling rows at instant {missing[0]};"):
                    bounds()
                return
            got = bounds()
        lo, hi = np.empty((2, len(setups), len(nodes)))
        for setup in setups:
            columns = oracles.direct_resolvent(setup.snapshot.matrix, setup.snapshot.dangling,
                                               setup.damping, nodes, setup.u)
            lo[setup.k - 1] = columns.min(axis=0)
            hi[setup.k - 1] = columns[nodes, range(len(nodes))]
        assert got.lo.tobytes() == lo.tobytes()
        assert got.hi.tobytes() == hi.tobytes()

    def test_direct_residuals_are_measured(self):
        # the direct solve reports |damping M^T pi + (1 - damping) v - pi|_1 of
        # its vector: rounding-sized, not a constant 0.0
        traj = trajectory_continuous(synthetic_five_node(), ExponentialDecay(1.0),
                                     ConstantDamping(0.85), UniformPersonalization(),
                                     np.linspace(0.0, 1.0, 1001))
        residuals = np.array(traj.metadata["residuals"])
        assert traj.metadata["solver"] == "direct"
        assert traj.metadata["iterations"] == [0] * 1001
        assert ((0.0 <= residuals) & (residuals < 1e-12)).all()
        assert (residuals > 0.0).any()

    @pytest.mark.parametrize("route, sizes", [("direct", [11]), ("auto", [11]),
                                              ("power", [1] * 11), ("bounds direct", [11]),
                                              ("bounds neumann", [1] * 11)])
    def test_only_direct_solves_stack_instants(self, route, sizes, monkeypatch):
        # ranks and bounds hand every solver the one record (ks, P, dangling,
        # dampings, vs, us): a direct chunk stacks many instants, P their
        # (K, n, n) array; power iteration and the Neumann series (n = 2001)
        # take one instant per chunk, P the 1-tuple of its CSR snapshot, so
        # their instants spread over the threads
        records = []

        def recording(tasks, solve, places, threads):
            def drawn():
                for task in tasks:
                    records.append(task)
                    yield task

            def counted(task):
                fields = solve(task)
                assert all(len(field) == len(task[0]) for field in fields)
                return fields
            return run_instants(drawn(), counted, places, threads)

        run_instants = pagerank._run_instants
        monkeypatch.setattr(pagerank, "_run_instants", recording)
        monkeypatch.setattr(localization, "_run_instants", recording)
        kernel, damping, grid = ExponentialDecay(1.0), ConstantDamping(0.85), np.linspace(0, 1, 11)
        n = 5
        if route == "bounds direct":
            bounds_trajectory(synthetic_five_node(), kernel, damping, grid=grid, threads=2)
        elif route == "bounds neumann":
            n = 2001
            matrix = sparse.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                      shape=(n, n))
            net = DiscreteTemporalNetwork(n, np.arange(11.0), (matrix,) * 11)
            bounds_trajectory(net, kernel, damping, nodes=[0, 1], threads=2)
        else:
            trajectory_continuous(synthetic_five_node(), kernel, damping,
                                  UniformPersonalization(), grid, solver=route, threads=2)
        assert [len(record[0]) for record in records] == sizes
        assert [k for record in records for k in record[0]] == list(range(1, 12))
        for record in records:
            assert isinstance(record, tuple) and len(record) == 6
            ks, transitions, dangling, dampings, vs, us = record
            assert len(transitions) == len(dampings) == len(vs) == len(us) == len(ks)
            assert dangling.shape == (len(ks), n)
            if len(sizes) == 1:
                assert isinstance(transitions, np.ndarray)
                assert transitions.shape == (len(ks), n, n)
            else:
                assert type(transitions) is tuple
                assert all(type(snapshot) is StochasticSnapshot for snapshot in transitions)

    @pytest.mark.parametrize("scale", ["discrete", "continuous"])
    def test_direct_route_builds_no_snapshot(self, scale, monkeypatch):
        # with the exponential kernel B stays dense from accumulation to the
        # solve; power iteration still takes one CSR snapshot per instant
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(StochasticSnapshot, "__init__",
                            counting("snapshot", StochasticSnapshot.__init__))
        monkeypatch.setattr(accumulate, "row_normalize",
                            counting("row_normalize", accumulate.row_normalize))
        net, grid = synthetic_five_node(), np.linspace(0.0, 1.0, 11)
        if scale == "discrete":
            net, grid = truncate(net, 11), None

        def run(solver):
            kwargs = dict(solver=solver, personalization=InputPersonalization(),
                          kernel=ExponentialDecay(1.0), damping=ConstantDamping(0.85))
            if grid is None:
                return trajectory_discrete(net, **kwargs).vectors
            return trajectory_continuous(net, grid=grid, **kwargs).vectors

        direct = run("direct")
        assert calls == {}
        power = run("power")
        assert calls["snapshot"] >= 11
        assert np.abs(direct - power).max() <= 1e-10

    def test_one_solve_and_no_per_instant_matrix_build(self, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(ContinuousTemporalNetwork, "edge_csr",
                            counting("edge_csr", ContinuousTemporalNetwork.edge_csr))
        monkeypatch.setattr(accumulate, "row_normalize",
                            counting("row_normalize", accumulate.row_normalize))
        code = cli.main(["compute", "--preset", "paper-synthetic", "--grid-count", "1001",
                         "--threads", "1", "--no-header", "--output", str(tmp_path / "s.csv")])
        assert code == 0
        assert calls == {"solve": 1}


class TestCallerOrderOnOneInstantChunks:
    # power iteration and the Neumann series solve one instant per chunk, in time order;
    # row i of an unsorted grid with a repeat is the sorted grid's row for grid[i]
    GRID = [0.5, 0.0, 1.0, 0.25, 0.5]
    ROWS = np.searchsorted(sorted(GRID), GRID)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_power_trajectory(self, threads):
        def run(grid):
            return trajectory_continuous(synthetic_five_node(), ExponentialDecay(1.0),
                                         ConstantDamping(0.85), InputPersonalization(), grid,
                                         solver="power", threads=threads)
        got, reference = run(self.GRID), run(sorted(self.GRID))
        assert got.vectors.tobytes() == reference.vectors[self.ROWS].tobytes()
        for name in ("iterations", "residuals"):
            assert got.metadata[name] == [reference.metadata[name][row] for row in self.ROWS]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_neumann_bounds(self, threads):
        def run(grid):
            return bounds_trajectory(synthetic_five_node(), ExponentialDecay(1.0),
                                     ConstantDamping(0.85), nodes=[4, 0], grid=grid,
                                     dangling_dist=UniformPersonalization(), threads=threads)
        with mock.patch.object(pagerank, "DIRECT_SOLVE_MAX_N", 0):
            got, reference = run(self.GRID), run(sorted(self.GRID))
        assert got.lo.tobytes() == reference.lo[self.ROWS].tobytes()
        assert got.hi.tobytes() == reference.hi[self.ROWS].tobytes()
        assert got.instants.tolist() == self.GRID


class TestSampledDiscreteScale:
    """converge's discrete scale, the network truncate keeps as the entry record of a
    partition's samples, ranks as the network of the same samples built as CSR matrices,
    bit for bit."""

    @settings(max_examples=60)
    @given(net=continuous_networks(), count=st.integers(2, 9), rate=st.floats(-2.0, 4.0),
           custom=st.booleans(), solver=st.sampled_from(["direct", "power"]),
           threads=st.sampled_from([1, 2]),
           personalization=st.sampled_from([UniformPersonalization(), InputPersonalization()]))
    def test_matches_truncate_bit_for_bit(self, net, count, rate, custom, solver, threads,
                                          personalization):
        kernel = CustomDecay(lambda s, t: math.exp(-rate * (t - s))) if custom \
            else ExponentialDecay(rate)

        def run(source):
            trajectory = trajectory_discrete(source, kernel, ConstantDamping(0.85),
                                             personalization, solver=solver, threads=threads)
            return (trajectory.instants.tobytes(), trajectory.vectors.tobytes(),
                    trajectory.metadata)

        truncated = truncate(net, count)
        oracle = DiscreteTemporalNetwork(
            net.n, truncated.instants, oracles.coo_truncate_snapshots(net, truncated.instants))
        assert run(truncated) == run(oracle)


class RecordingSchedule(PersonalizationSchedule):
    """Uniform, keeping the adjacency each instant hands it."""

    def __init__(self):
        self.seen = []

    def raw(self, adjacency, k, t):
        self.seen.append(adjacency)
        return np.ones(adjacency.shape[0])


class TestAdjacencyOnDemand:
    """A dense chunk builds its A(t) only for a schedule that reads it."""

    @pytest.mark.parametrize("personalization, calls", [
        (UniformPersonalization(), 0),
        (TabulatedPersonalization((np.arange(1.0, 6.0),)), 0),
        (CustomPersonalization(lambda t: np.arange(1.0, 6.0) + t), 0),
        (InputPersonalization(), 3),
        (InverseInputPersonalization(), 3),
    ], ids=["uniform", "tabulated", "custom", "input", "inverse-input"])
    def test_edge_csrs_called_once_per_chunk_that_reads(self, personalization, calls,
                                                        monkeypatch):
        # n = 5 and 100 entries a chunk: 11 instants are 3 chunks of up to 4
        counted = Counter()
        edge_csrs = ContinuousTemporalNetwork.edge_csrs

        def counting(net, values):
            counted["edge_csrs"] += 1
            return edge_csrs(net, values)

        grid = np.linspace(0.0, 1.0, 11)
        kwargs = dict(kernel=ExponentialDecay(1.0), damping=ConstantDamping(0.85),
                      personalization=personalization, grid=grid)
        reference = trajectory_continuous(synthetic_five_node(), **kwargs)
        monkeypatch.setattr(accumulate, "_CHUNK_ENTRIES", 100)
        monkeypatch.setattr(ContinuousTemporalNetwork, "edge_csrs", counting)
        got = trajectory_continuous(synthetic_five_node(), **kwargs)
        assert counted["edge_csrs"] == calls
        assert got.vectors.tobytes() == reference.vectors.tobytes()

    def test_schedules_of_their_own_get_the_adjacency(self):
        net, grid = synthetic_five_node(), np.linspace(0.0, 1.0, 11)
        schedule = RecordingSchedule()
        trajectory_continuous(net, ExponentialDecay(1.0), ConstantDamping(0.85), schedule, grid)
        assert len(schedule.seen) == len(grid)
        for adjacency, t in zip(schedule.seen, grid):
            expected = net.adjacency_at(t)
            assert sparse.issparse(adjacency)
            for field in ("data", "indices", "indptr"):
                assert getattr(adjacency, field).tobytes() == getattr(expected, field).tobytes()

    def test_node_count_in_place_of_the_adjacency(self):
        adjacency = synthetic_five_node().adjacency_at(0.5)
        for schedule in (UniformPersonalization(),
                         TabulatedPersonalization((np.arange(1.0, 6.0),)),
                         CustomPersonalization(lambda t: np.arange(1.0, 6.0) + t)):
            assert not schedule.reads_adjacency
            assert personalization_at(schedule, 5, 1, 0.5).tobytes() == \
                personalization_at(schedule, adjacency, 1, 0.5).tobytes()
        assert InputPersonalization().reads_adjacency
        assert PersonalizationSchedule.reads_adjacency
        for schedule in (InputPersonalization(), InverseInputPersonalization(),
                         RecordingSchedule()):
            with pytest.raises(InvalidInputError, match="reads the adjacency"):
                personalization_at(schedule, 5, 1, 0.5)


def _solved(call):
    """The arrays a solve returns, as bytes, or its error."""
    try:
        result = call()
    except TemporankError as err:
        return type(err).__name__, str(err)
    arrays = (result.vectors,) if hasattr(result, "vectors") else (result.lo, result.hi)
    return [(array.dtype.str, array.shape, array.tobytes()) for array in arrays]


class TestEntryRecordNetworks:
    @settings(max_examples=60, deadline=None)
    @given(net=zero_bearing_networks(),
           personalization=st.sampled_from([UniformPersonalization(), InputPersonalization()]),
           kernel=st.sampled_from([ExponentialDecay(0.0), ExponentialDecay(0.7),
                                   CustomDecay(lambda s, t: 1.0 / (1.0 + (t - s)))]))
    def test_rank_and_bound_as_networks_of_the_oracle_csrs(self, net, personalization,
                                                           kernel):
        # a loaded network holds one entry record; the oracle network holds the CSR
        # matrices a file's blocks were once built as.  Every route gives the same bits
        loaded = loads_network(dumps_network(net))
        oracle = DiscreteTemporalNetwork(
            net.n, net.instants, tuple(map(oracles.nonzeros_to_csr, net.snapshots)),
            None if net.initial_adjacency is None
            else oracles.nonzeros_to_csr(net.initial_adjacency))
        damping = ConstantDamping(0.85)
        calls = [lambda network, solver=solver: trajectory_discrete(
            network, kernel, damping, personalization, solver=solver)
            for solver in ("direct", "power")]
        calls += [lambda network: bounds_trajectory(network, kernel, damping, nodes=[0],
                                                    dangling_dist=personalization)] * 2
        limits = [pagerank.DIRECT_SOLVE_MAX_N] * 3 + [0]   # bounds direct, then Neumann
        for call, limit in zip(calls, limits):
            with mock.patch.object(pagerank, "DIRECT_SOLVE_MAX_N", limit):
                assert _solved(lambda: call(loaded)) == _solved(lambda: call(oracle))


#: the callable of each kind that raises at every call, what the error calls it, and the
#: kernel, damping and personalization of a run that holds it
RAISING = {
    "kernel": ("decay kernel", CustomDecay(lambda s, t: 1 / 0), ConstantDamping(0.85),
               UniformPersonalization()),
    "damping": ("damping schedule", ExponentialDecay(1.0), CustomDamping(lambda t: 1 / 0),
                UniformPersonalization()),
    "personalization": ("personalization schedule", ExponentialDecay(1.0),
                        ConstantDamping(0.85), CustomPersonalization(lambda t: 1 / 0)),
}


@pytest.mark.parametrize("entry", ["discrete", "continuous", "bounds"])
@pytest.mark.parametrize("raising", sorted(RAISING))
def test_a_raising_callable_is_a_clean_error(raising, entry):
    # as for an edge function that raises: an InvalidInputError naming the instant, chained
    name, kernel, damping, personalization = RAISING[raising]
    dangling = loads_network("nodes 3\ninstant 2.0\n1 2 1.0\n2 1 1.0\n")   # node 3 dangles
    calls = {
        "discrete": lambda: trajectory_discrete(dangling, kernel, damping, personalization),
        "continuous": lambda: trajectory_continuous(synthetic_five_node(), kernel, damping,
                                                    personalization, grid=[0.5, 0.75]),
        "bounds": lambda: bounds_trajectory(dangling, kernel, damping,
                                            dangling_dist=personalization),
    }
    t = 0.5 if entry == "continuous" else 2.0
    where = f"s={t}, t={t}" if raising == "kernel" else f"instant k=1, t={t}"
    with pytest.raises(InvalidInputError) as caught:
        calls[entry]()
    assert str(caught.value) == f"the {name} raised ZeroDivisionError('division by zero') " \
                                f"at {where}"
    assert isinstance(caught.value.__cause__, ZeroDivisionError)
