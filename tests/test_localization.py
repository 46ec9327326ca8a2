"""Resolvent columns and localization bounds."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    CustomDamping,
    DiscreteTemporalNetwork,
    ExponentialDecay,
    InputPersonalization,
    InvalidInputError,
    TabulatedPersonalization,
    UniformPersonalization,
    bounds_for_node,
    bounds_trajectory,
    pagerank_direct,
    resolvent_column,
    row_normalize,
    synthetic_five_node,
    trajectory_continuous,
    trajectory_discrete,
    truncate,
)
from temporank import localization
from temporank.localization import _apply_m

TWO_NODE = np.array([[0.0, 1.0], [1.0, 1.0]])


def snapshot_of(A):
    return row_normalize(sparse.csr_array(np.asarray(A, dtype=float)))


def full_x(snap, damping, u=None, method="direct"):
    cols = [resolvent_column(snap, damping, i, u=u, method=method).column
            for i in range(snap.n)]
    return np.column_stack(cols)


class TestApplyM:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 60),
           density=st.floats(0.0, 1.0), dangling=st.booleans())
    def test_matches_scatter_add_bit_for_bit(self, seed, n, density, dangling):
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) * (rng.random((n, n)) < density)
        if dangling:
            A[rng.integers(0, n), :] = 0.0
        snap = snapshot_of(A)
        u = oracles.random_simplex_vector(rng, n) if snap.dangling.any() else None
        x = rng.normal(size=n)
        expected = oracles.csr_matvec(snap.matrix, x)
        if u is not None:
            expected += snap.dangling * float(u @ x)
        assert np.array_equal(_apply_m(snap, u, x), expected)

    def test_empty_rows_contribute_nothing(self):
        snap = snapshot_of(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]]))
        y = _apply_m(snap, None, np.array([1.0, 10.0, 100.0]))
        np.testing.assert_array_equal(y, [10.0, 0.0, 25.75])


class TestResolventColumn:
    def test_self_loops_make_x_the_identity(self):
        snap = snapshot_of(np.eye(4))
        for lam in (0.1, 0.85):
            for i in range(4):
                col = resolvent_column(snap, lam, i).column
                assert col == pytest.approx(np.eye(4)[:, i], abs=1e-13)

    def test_two_node_closed_form(self):
        # X = (0.15/0.21375) * [[0.575, 0.85], [0.425, 1]] = [[23,34],[17,40]]/57
        snap = snapshot_of(TWO_NODE)
        X = full_x(snap, 0.85)
        assert X == pytest.approx(np.array([[23.0, 34.0], [17.0, 40.0]]) / 57.0, abs=1e-13)

    def test_neumann_agrees_with_direct(self, rng):
        for _ in range(15):
            n = int(rng.integers(2, 40))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            u = None
            if rng.integers(0, 2):
                A[int(rng.integers(0, n)), :] = 0.0
                u = oracles.random_simplex_vector(rng, n)
            snap = snapshot_of(A)
            lam = float(rng.uniform(0.05, 0.95))
            node = int(rng.integers(0, n))
            direct = resolvent_column(snap, lam, node, u=u, method="direct").column
            neumann = resolvent_column(snap, lam, node, u=u, method="neumann").column
            assert np.abs(direct - neumann).max() <= 1e-10

    def test_rows_sum_to_one_and_entries_are_probabilities(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            A[0, :] = 0.0
            u = oracles.random_simplex_vector(rng, n)
            X = full_x(snapshot_of(A), float(rng.uniform(0.1, 0.9)), u=u)
            assert np.abs(X.sum(axis=1) - 1.0).max() <= 1e-10
            assert X.min() >= -1e-12
            assert X.max() <= 1.0 + 1e-12

    def test_rank_is_personalization_dot_column(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 30))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
            snap = snapshot_of(A)
            lam = float(rng.uniform(0.1, 0.9))
            v = oracles.random_simplex_vector(rng, n)
            u = v if snap.dangling.any() else None
            pi = pagerank_direct(snap, lam, v, u=u)
            X = full_x(snap, lam, u=u)
            assert np.abs(pi - v @ X).max() <= 1e-10

    def test_dangling_without_u_rejected(self):
        snap = snapshot_of(np.array([[0.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(InvalidInputError, match="dangling"):
            resolvent_column(snap, 0.85, 0)

    def test_node_and_method_checked(self):
        snap = snapshot_of(TWO_NODE)
        with pytest.raises(InvalidInputError):
            resolvent_column(snap, 0.85, 2)
        with pytest.raises(InvalidInputError):
            resolvent_column(snap, 0.85, 0, method="qr")
        with pytest.raises(InvalidInputError):
            resolvent_column(snap, 1.0, 0)


class TestBoundsForNode:
    def test_two_node_bounds_contain_the_rank(self):
        snap = snapshot_of(TWO_NODE)
        lo, hi = bounds_for_node(snap, 0.85, 0)
        assert (lo, hi) == pytest.approx((17.0 / 57.0, 23.0 / 57.0), abs=1e-13)
        assert (lo, hi) == pytest.approx((0.298246, 0.403509), abs=1e-6)
        pi = pagerank_direct(snap, 0.85, np.array([0.5, 0.5]))
        assert lo <= pi[0] <= hi

    def test_self_loop_bounds_span_everything(self):
        snap = snapshot_of(np.eye(3))
        for i in range(3):
            lo, hi = bounds_for_node(snap, 0.85, i)
            assert lo == pytest.approx(0.0, abs=1e-14)
            assert hi == pytest.approx(1.0, abs=1e-13)

    def test_two_cycle_closed_form(self):
        snap = snapshot_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lo, hi = bounds_for_node(snap, 0.85, 0)
        assert (lo, hi) == pytest.approx((17.0 / 37.0, 20.0 / 37.0), abs=1e-13)
        assert (lo, hi) == pytest.approx((0.459459, 0.540541), abs=1e-6)

    def test_diagonal_dominates_its_column(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            snap = snapshot_of(A)
            u = oracles.random_simplex_vector(rng, n) if snap.dangling.any() else None
            lam = float(rng.uniform(0.05, 0.95))
            for node in range(n):
                col = resolvent_column(snap, lam, node, u=u).column
                assert col.max() <= col[node] + 1e-10

    def test_width_never_exceeds_one(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 20))
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.6) + np.eye(n)
            snap = snapshot_of(A)
            lo, hi = bounds_for_node(snap, float(rng.uniform(0.05, 0.95)),
                                     int(rng.integers(0, n)))
            assert 0.0 <= lo <= hi <= 1.0 + 1e-12
            assert hi - lo <= 1.0


class TestBoundsTrajectory:
    def test_contains_trajectories_with_time_varying_schedules(self, rng):
        kernel = ExponentialDecay(0.8)
        for _ in range(25):
            n, instants, snaps = oracles.random_discrete_network(rng, n_max=25, instant_max=4)
            net = DiscreteTemporalNetwork(n, instants, tuple(snaps))
            lam_by_t = {float(t): float(rng.uniform(0.05, 0.95)) for t in instants}
            damping = CustomDamping(lambda t: lam_by_t[t])
            vectors = tuple(oracles.random_simplex_vector(rng, n) for _ in instants)
            personalization = TabulatedPersonalization(vectors)
            bounds = bounds_trajectory(net, kernel, damping, dangling_dist=personalization)
            traj = trajectory_discrete(net, kernel, damping, personalization)
            assert (bounds.lo - 1e-12 <= traj.vectors).all()
            assert (traj.vectors <= bounds.hi + 1e-12).all()

    def test_constant_network_has_constant_bounds(self):
        A = np.array([[0.0, 2.0, 1.0], [1.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
        net = DiscreteTemporalNetwork(3, np.array([0.0, 1.0, 2.0]), (A, A, A))
        bounds = bounds_trajectory(net, ExponentialDecay(0.0), ConstantDamping(0.85))
        assert np.abs(bounds.lo - bounds.lo[0]).max() <= 1e-13
        assert np.abs(bounds.hi - bounds.hi[0]).max() <= 1e-13

    def test_node_subset_selects_columns(self):
        net = truncate(synthetic_five_node(), 3)
        all_nodes = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))
        subset = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   nodes=[4, 1])
        assert np.array_equal(subset.nodes, np.array([4, 1]))
        assert subset.lo == pytest.approx(all_nodes.lo[:, [4, 1]], abs=1e-14)
        assert subset.hi == pytest.approx(all_nodes.hi[:, [4, 1]], abs=1e-14)

    def test_continuous_network_needs_a_grid(self):
        net = synthetic_five_node()
        with pytest.raises(InvalidInputError, match="grid"):
            bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))

    @pytest.mark.parametrize("grid", [[], [[0.0, 0.5], [0.25, 1.0]]])
    def test_empty_or_nested_grid_rejected_as_for_trajectories(self, grid):
        with pytest.raises(InvalidInputError, match="grid must be a non-empty 1-d sequence"):
            bounds_trajectory(synthetic_five_node(), ExponentialDecay(1.0),
                              ConstantDamping(0.85), grid=grid)

    def test_continuous_bounds_contain_the_continuous_trajectory(self):
        net = synthetic_five_node()
        grid = np.linspace(0.0, 1.0, 11)
        kernel = ExponentialDecay(1.0)
        bounds = bounds_trajectory(net, kernel, ConstantDamping(0.85), grid=grid)
        traj = trajectory_continuous(net, kernel, ConstantDamping(0.85),
                                     UniformPersonalization(), grid=grid)
        assert (bounds.lo - 1e-12 <= traj.vectors).all()
        assert (traj.vectors <= bounds.hi + 1e-12).all()

    def test_one_instant_per_chunk(self, monkeypatch):
        # bounds are solved per instant, so the instants spread over the threads
        chunks = []

        def recording(setups, solve, threads, size=1):
            def counted(chunk):
                chunks.append(len(chunk))
                return solve(chunk)
            return run_instants(setups, counted, threads, size)

        run_instants = localization._run_instants
        monkeypatch.setattr(localization, "_run_instants", recording)
        bounds_trajectory(synthetic_five_node(), ExponentialDecay(1.0), ConstantDamping(0.85),
                          grid=np.linspace(0.0, 1.0, 11), threads=2)
        assert chunks == [1] * 11

    def test_dangling_without_distribution_rejected(self):
        A1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        net = DiscreteTemporalNetwork(2, np.array([0.0]), (A1,))
        with pytest.raises(InvalidInputError, match="dangling"):
            bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))

    def test_node_subset_range_checked(self):
        net = truncate(synthetic_five_node(), 2)
        with pytest.raises(InvalidInputError):
            bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                              nodes=[0, 5])

    @pytest.mark.parametrize("n", [5, 2001])
    def test_empty_node_subset_on_either_solver(self, n):
        # n = 2001 takes the Neumann series, n = 5 the direct solve
        matrix = sparse.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                  shape=(n, n))
        net = DiscreteTemporalNetwork(n, np.array([0.0, 1.0]), (matrix, matrix))
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   nodes=[])
        assert bounds.nodes.shape == (0,)
        assert bounds.lo.shape == bounds.hi.shape == (2, 0)

    def test_empty_node_subset_runs_no_solve(self, monkeypatch):
        def solve(*args):
            raise AssertionError("solved for no columns")

        monkeypatch.setattr(np.linalg, "solve", solve)
        net = truncate(synthetic_five_node(), 3)
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   nodes=[])
        assert bounds.lo.shape == (3, 0)

    def test_huge_network_requires_explicit_subset(self):
        n = 2001
        matrix = sparse.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                  shape=(n, n))
        net = DiscreteTemporalNetwork(n, np.array([0.0]), (matrix,))
        with pytest.raises(InvalidInputError, match="subset"):
            bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   nodes=[0, 1000])
        assert bounds.lo.shape == (1, 2)
        assert (bounds.hi <= 1.0 + 1e-12).all()


@st.composite
def discrete_problems(draw):
    """A random discrete network with a decay rate, a damping factor and a relabelling."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, instants, snapshots = oracles.random_discrete_network(rng, n_max=12, instant_max=4)
    return SimpleNamespace(
        n=n, instants=instants, snapshots=snapshots,
        kernel=ExponentialDecay(draw(st.floats(-1.0, 3.0))),
        damping=ConstantDamping(draw(st.floats(0.05, 0.95))),
        scale=rng.uniform(0.01, 100.0, size=n), perm=rng.permutation(n))


def trajectory_and_bounds(problem, snapshots, personalization):
    net = DiscreteTemporalNetwork(problem.n, problem.instants, tuple(snapshots))
    traj = trajectory_discrete(net, problem.kernel, problem.damping, personalization,
                               solver="direct")
    bounds = bounds_trajectory(net, problem.kernel, problem.damping,
                               dangling_dist=personalization)
    return traj.vectors, bounds.lo, bounds.hi


class TestInvariances:
    @given(discrete_problems())
    def test_positive_row_scaling_changes_nothing(self, problem):
        # the same factor for row i at every instant: row normalization removes it
        personalization = UniformPersonalization()
        base = trajectory_and_bounds(problem, problem.snapshots, personalization)
        scaled = trajectory_and_bounds(
            problem, [problem.scale[:, None] * A for A in problem.snapshots],
            personalization)
        for got, want in zip(scaled, base):
            assert np.abs(got - want).max() <= 1e-12

    @given(discrete_problems())
    def test_relabelling_nodes_permutes_trajectory_and_bounds(self, problem):
        # node i becomes node perm[i]; the input recipe reads column sums,
        # which follow the relabelling
        personalization = InputPersonalization()
        inverse = np.argsort(problem.perm)
        base = trajectory_and_bounds(problem, problem.snapshots, personalization)
        relabelled = trajectory_and_bounds(
            problem, [A[np.ix_(inverse, inverse)] for A in problem.snapshots],
            personalization)
        for got, want in zip(relabelled, base):
            assert np.abs(got[:, problem.perm] - want).max() <= 1e-12
