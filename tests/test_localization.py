"""Resolvent columns and localization bounds."""

import math
import os
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    ContinuousTemporalNetwork,
    CustomDamping,
    DiscreteTemporalNetwork,
    ExponentialDecay,
    GoogleOperator,
    InputPersonalization,
    InternalError,
    InvalidInputError,
    StochasticSnapshot,
    TabulatedPersonalization,
    UniformPersonalization,
    bounds_for_node,
    bounds_trajectory,
    pagerank_direct,
    pagerank_power,
    resolvent_column,
    row_normalize,
    save_network,
    synthetic_five_node,
    trajectory_continuous,
    trajectory_discrete,
    truncate,
)
from temporank import accumulate, localization
from temporank.localization import _apply_m, _bounds, _resolvent_columns

TWO_NODE = np.array([[0.0, 1.0], [1.0, 1.0]])


def snapshot_of(A):
    return row_normalize(sparse.csr_array(np.asarray(A, dtype=float)))


def column(snap, damping, node, u, method, tol=1e-12):
    """Column ``node`` of X by the "direct" solve (n up to DIRECT_SOLVE_MAX_N) or the
    "neumann" series, whatever the size."""
    if method == "direct":
        return resolvent_column(snap, damping, node, u, tol).column
    return _resolvent_columns(np.array([node]), tol, (None,), (snap,), snap.dangling[None],
                              (damping,), None, (u,))[0, :, 0]


def column_bounds(column, node):
    """(lo, hi) of one column of X, as bounds_for_node takes them."""
    lo, hi = _bounds(column[None, :, None], np.array([node]))
    return float(lo[0, 0]), float(hi[0, 0])


def full_x(snap, damping, u=None, method="direct"):
    return np.column_stack([column(snap, damping, i, u, method) for i in range(snap.n)])


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
        if u is not None:   # <u, x> by numpy's pairwise sum, not a BLAS dot
            expected += snap.dangling * float(np.add.reduce(u * x))
        assert np.array_equal(_apply_m(snap, u, x), expected)

    def test_empty_rows_contribute_nothing(self):
        snap = snapshot_of(np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [3.0, 0.0, 1.0]]))
        y = _apply_m(snap, None, np.array([1.0, 10.0, 100.0]))
        np.testing.assert_array_equal(y, [10.0, 0.0, 25.75])

    def test_neumann_bounds_do_not_follow_the_blas_thread_count(self, tmp_path):
        # a BLAS dot for <u, x> gives other bits under another OPENBLAS_NUM_THREADS from
        # about 20k nodes on; the count is read when numpy loads, so each run is a child
        rng = np.random.default_rng(5)
        n = 80_000
        live = np.flatnonzero(rng.random(n) >= 0.1)   # about 10% dangling rows
        rows = np.concatenate([live, live])
        cols = np.concatenate([(live + 1) % n, rng.integers(0, n, live.size)])
        matrix = sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
        matrix.sum_duplicates()
        save_network(DiscreteTemporalNetwork(n, [0.0], (matrix,)), tmp_path / "ring.net")
        src = os.path.dirname(os.path.dirname(localization.__file__))
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for threads in ("1", "2"):
            target = tmp_path / f"bounds-{threads}.csv"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
            done = subprocess.run([sys.executable, "-m", "temporank", "localize", "--network",
                                   str(tmp_path / "ring.net"), "--nodes", "1,2", "--no-header",
                                   "--output", str(target)], capture_output=True, env=env)
            assert done.returncode == 0, done.stderr
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1]


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
            direct = column(snap, lam, node, u, "direct")
            neumann = column(snap, lam, node, u, "neumann")
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

    @pytest.mark.parametrize("n", [2, 2001])
    def test_u_is_unread_without_dangling_rows(self, n):
        # u is read, and checked, only at an instant with dangling rows; n = 2001 takes the
        # Neumann series, n = 2 the direct solve
        snap = snapshot_of(TWO_NODE) if n == 2 else row_normalize(sparse.csr_array(
            (np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)), shape=(n, n)))
        for call in (resolvent_column, bounds_for_node):
            got, want = call(snap, 0.85, 1, u="x"), call(snap, 0.85, 1)
            assert np.array_equal(getattr(got, "column", got), getattr(want, "column", want))

    def test_node_and_damping_checked(self):
        snap = snapshot_of(TWO_NODE)
        with pytest.raises(InvalidInputError):
            resolvent_column(snap, 0.85, 2)
        with pytest.raises(InvalidInputError):
            resolvent_column(snap, 1.0, 0)

    @pytest.mark.parametrize("node", ["0", 0.5, 2, -1, None, [0], True])
    def test_node_checked_at_every_entry(self, node):
        snap = snapshot_of(TWO_NODE)
        net = DiscreteTemporalNetwork(2, [0.0], (TWO_NODE,))
        calls = [lambda: resolvent_column(snap, 0.85, node),
                 lambda: bounds_for_node(snap, 0.85, node),
                 lambda: bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                           nodes=[node])]
        for call in calls:
            with pytest.raises(InvalidInputError,
                               match=r"^node subset must be 1-d integers in 0\.\.1$"):
                call()

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan])
    def test_series_needs_a_positive_tolerance(self, tol):
        # the Neumann series stops on tol; at tol <= 0 it would never stop
        with pytest.raises(InvalidInputError, match="tolerance must be positive"):
            column(snapshot_of(TWO_NODE), 0.85, 0, None, "neumann", tol=tol)


class TestBounds:
    def test_minimum_and_diagonal_of_every_column(self, rng):
        columns = rng.random((3, 6, 2))
        nodes = np.array([4, 1])
        columns[:, 4, 0] = columns[:, 1, 1] = 2.0
        lo, hi = _bounds(columns, nodes)
        assert lo.tobytes() == columns.min(axis=1).tobytes()
        assert (hi == 2.0).all()

    @pytest.mark.parametrize("shape, nodes", [((2, 0, 0), []), ((2, 5, 0), []),
                                              ((0, 5, 2), [0, 3])])
    def test_empty_network_subset_or_chunk(self, shape, nodes):
        # a bare min over a zero-length axis of nodes raises
        lo, hi = _bounds(np.zeros(shape), np.array(nodes, dtype=int))
        assert lo.shape == hi.shape == (shape[0], shape[2])

    def test_first_column_whose_diagonal_is_not_its_maximum_is_named(self):
        columns = np.full((2, 3, 2), 0.25)
        columns[:, [0, 2], [0, 1]] = 0.5   # nodes 0 and 2 on their diagonals
        columns[1, 1, 1] = 0.75            # instant 2, node 2
        columns[1, 2, 0] = 0.625           # instant 2, node 0: the first in (instant, node)
        with pytest.raises(InternalError, match=r"^resolvent column 0: diagonal 0\.5 is not "
                                                r"the maximum 0\.625$"):
            _bounds(columns, np.array([0, 2]))

    def test_no_node_network_has_empty_bounds(self):
        net = DiscreteTemporalNetwork(0, [0.0, 1.0], (np.zeros((0, 0)),) * 2)
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))
        assert bounds.lo.shape == bounds.hi.shape == (2, 0)

    def test_network_of_no_instants_has_empty_bounds(self):
        net = DiscreteTemporalNetwork(3, [], ())
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85))
        assert bounds.lo.shape == bounds.hi.shape == (0, 3)


class TestNeumannEnclosure:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), dangling=st.booleans(),
           lam=st.floats(0.05, 0.95), tol=st.sampled_from([1e-6, 1e-10]))
    def test_lo_and_hi_enclose_the_direct_bounds_within_tol(self, seed, n, dangling, lam, tol):
        rng = np.random.default_rng(seed)
        A = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.05, 0.6))
        if dangling:
            A[rng.integers(0, n), :] = 0.0
        snap = snapshot_of(A)
        u = oracles.random_simplex_vector(rng, n) if snap.dangling.any() else None
        node = int(rng.integers(0, n))
        want_lo, want_hi = column_bounds(
            column(snap, lam, node, u, "direct"), node)
        with mock.patch.object(localization, "_apply_m", wraps=_apply_m) as products:
            lo, hi = column_bounds(
                column(snap, lam, node, u, "neumann", tol=tol), node)
        # the truncated entries lie below the exact ones, the diagonal above
        assert want_lo - tol <= lo <= want_lo + 1e-14
        assert want_hi - 1e-14 <= hi <= want_hi + tol
        # terms e_i, damping M e_i, ...: one more than the products.  Where
        # log tol / log lam is an integer k, damping^k lands on tol and
        # rounding may take one more term, hence the 1e-9.
        terms = products.call_count + 1
        assert terms <= math.ceil(math.log(tol) / math.log(lam) + 1e-9)


class TestNeumannStopsOnTheSpread:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 30), lam=st.floats(0.05, 0.95))
    def test_equal_positive_rows_need_two_terms(self, seed, n, lam):
        # every row of M is the same positive distribution w, so M e_i = w_i * 1 is flat:
        # the series stops after e_i and damping M e_i, the rest added exactly
        rng = np.random.default_rng(seed)
        snap = snapshot_of(np.tile(rng.uniform(0.5, 2.0, n), (n, 1)))
        node = int(rng.integers(0, n))
        want_lo, want_hi = column_bounds(
            column(snap, lam, node, None, "direct"), node)
        with mock.patch.object(localization, "_apply_m", wraps=_apply_m) as products:
            lo, hi = column_bounds(
                column(snap, lam, node, None, "neumann", tol=1e-12), node)
        assert products.call_count + 1 <= 2
        assert (lo, hi) == pytest.approx((want_lo, want_hi), abs=1e-14)


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

    @pytest.mark.parametrize("grid", [[], [[0.0, 0.5], [0.25, 1.0]], "abc"])
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
        # only on the Neumann series (n = 2001), so its instants spread over
        # the threads; at n = 5 one direct chunk is a dense record of all 11
        # instants, so each solve call is counted by its results
        chunks = []

        def recording(tasks, solve, places, threads):
            def counted(task):
                lo, hi = solve(task)
                chunks.append(len(lo))
                return lo, hi
            return run_instants(tasks, counted, places, threads)

        run_instants = localization._run_instants
        monkeypatch.setattr(localization, "_run_instants", recording)
        for n, sizes in [(5, [11]), (2001, [1] * 11)]:
            matrix = sparse.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                      shape=(n, n))
            net = DiscreteTemporalNetwork(n, np.arange(11.0), (matrix,) * 11)
            chunks.clear()
            bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85), nodes=[0, 1],
                              threads=2)
            assert chunks == sizes

    @pytest.mark.parametrize("scale", ["discrete", "continuous"])
    def test_direct_route_stacks_one_solve_and_builds_no_snapshot(self, scale, monkeypatch):
        # bounds take the ranks' dense chunk record: 11 instants at n = 5 are
        # one chunk, one stacked solve, no CSR snapshot and no row_normalize;
        # with no dangling distribution no schedule reads A(t), so none is built
        net, grid = synthetic_five_node(), np.linspace(0.0, 1.0, 11)
        if scale == "discrete":
            net, grid = truncate(net, 11), None
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
        monkeypatch.setattr(np.linalg, "solve", counting("solve", np.linalg.solve))
        monkeypatch.setattr(ContinuousTemporalNetwork, "edge_csrs",
                            counting("edge_csrs", ContinuousTemporalNetwork.edge_csrs))
        bounds = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85), grid=grid)
        assert bounds.lo.shape == (11, 5)
        assert calls == {"solve": 1}

    @pytest.mark.parametrize("case", ["nested nodes", "fractional node", "nan node",
                                      "text node", "nan tol", "inf tol", "zero tol",
                                      "nan tol, neumann", "nan tol, power"])
    def test_nodes_and_tol_checked_at_entry(self, case):
        # none may run: a cast would bound node 0 for 0.5, the direct route
        # never reads tol, and a NaN tol would keep power iteration going for
        # 100 000 iterations before a ConvergenceError
        small = truncate(synthetic_five_node(), 3)
        n = 2001
        matrix = sparse.csr_array((np.ones(n), (np.arange(n), (np.arange(n) + 1) % n)),
                                  shape=(n, n))
        huge = DiscreteTemporalNetwork(n, np.array([0.0]), (matrix,))
        kernel, damping = ExponentialDecay(1.0), ConstantDamping(0.85)
        calls = {
            "nested nodes": lambda: bounds_trajectory(small, kernel, damping, nodes=[[0]]),
            "fractional node": lambda: bounds_trajectory(small, kernel, damping, nodes=[0.5]),
            "nan node": lambda: bounds_trajectory(small, kernel, damping, nodes=[math.nan]),
            "text node": lambda: bounds_trajectory(small, kernel, damping, nodes=["0"]),
            "nan tol": lambda: bounds_trajectory(small, kernel, damping, tol=math.nan),
            "inf tol": lambda: bounds_trajectory(small, kernel, damping, tol=math.inf),
            "zero tol": lambda: bounds_trajectory(small, kernel, damping, tol=0.0),
            "nan tol, neumann": lambda: bounds_trajectory(huge, kernel, damping, nodes=[0],
                                                          tol=math.nan),
            "nan tol, power": lambda: pagerank_power(
                GoogleOperator(snapshot_of(TWO_NODE), 0.85, np.array([0.5, 0.5])),
                tol=math.nan),
        }
        with pytest.raises(InvalidInputError):
            calls[case]()

    def test_whole_numbers_of_any_dtype_name_nodes(self):
        net = truncate(synthetic_five_node(), 3)
        by_int = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                   nodes=[4, 1])
        by_float = bounds_trajectory(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                     nodes=np.array([4.0, 1.0]))
        assert by_float.nodes.tolist() == [4, 1]
        assert by_float.lo.tobytes() == by_int.lo.tobytes()

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
