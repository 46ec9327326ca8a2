"""Time-decayed accumulation and row-stochastic normalization."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    CustomDecay,
    DiscreteTemporalNetwork,
    ExponentialDecay,
    IntegrationError,
    InvalidInputError,
    QuadratureConfig,
    TemporankError,
    accumulate_continuous,
    accumulate_discrete,
    adaptive_simpson,
    cli,
    row_normalize,
    save_network,
    synthetic_five_node,
    truncate,
)
from temporank.accumulate import _continuous_accumulated, _edge_integrals, iter_instants
from temporank.pagerank import _run_instants


def two_snapshot_network(step=1.0):
    A1 = np.array([[0.0, 2.0], [1.0, 0.0]])
    A2 = np.array([[0.0, 0.0], [3.0, 0.0]])
    return DiscreteTemporalNetwork(2, np.array([0.0, step]), (A1, A2))


class TestAccumulateDiscrete:
    def test_first_instant_is_the_first_snapshot(self):
        net = two_snapshot_network()
        B = accumulate_discrete(net, ExponentialDecay(1.7), 1)
        assert np.array_equal(B.matrix.toarray(), net.snapshot_at(1).toarray())
        assert B.instant == 0.0

    def test_unweighted_kernel_sums_snapshots(self):
        net = two_snapshot_network()
        B = accumulate_discrete(net, CustomDecay(lambda s, t: 1.0), 2)
        expected = net.snapshot_at(1).toarray() + net.snapshot_at(2).toarray()
        assert np.array_equal(B.matrix.toarray(), expected)

    def test_fifty_day_decay_factor(self):
        # alpha = 0.001/day over a 50 day gap scales the old snapshot by e^{-0.05}
        factor = math.exp(-0.05)
        assert factor == pytest.approx(0.951229, abs=1e-6)
        net = two_snapshot_network(step=50.0)
        B = accumulate_discrete(net, ExponentialDecay(0.001), 2)
        expected = factor * net.snapshot_at(1).toarray() + net.snapshot_at(2).toarray()
        assert np.allclose(B.matrix.toarray(), expected, atol=1e-15)

    def test_index_out_of_range(self):
        net = two_snapshot_network()
        with pytest.raises(InvalidInputError):
            accumulate_discrete(net, ExponentialDecay(1.0), 0)
        with pytest.raises(InvalidInputError):
            accumulate_discrete(net, ExponentialDecay(1.0), 3)

    def test_kernel_must_be_positive_at_equal_times(self):
        net = two_snapshot_network()
        with pytest.raises(InvalidInputError):
            accumulate_discrete(net, CustomDecay(lambda s, t: 0.0), 1)

    def test_dangling_requires_zero_row_at_every_earlier_instant(self):
        A1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        A2 = np.array([[0.0, 5.0], [1.0, 0.0]])
        net = DiscreteTemporalNetwork(2, np.array([0.0, 1.0]), (A1, A2))
        kernel = ExponentialDecay(1.0)
        snap1 = row_normalize(accumulate_discrete(net, kernel, 1))
        snap2 = row_normalize(accumulate_discrete(net, kernel, 2))
        assert list(snap1.dangling) == [1, 0]
        assert list(snap2.dangling) == [0, 0]


class TestRowNormalize:
    def test_basic(self):
        snap = row_normalize(sparse.csr_array(np.array([[0.0, 1.0], [1.0, 1.0]])))
        assert np.array_equal(snap.matrix.toarray(),
                              np.array([[0.0, 1.0], [0.5, 0.5]]))
        assert list(snap.dangling) == [0, 0]

    def test_dangling_row_stays_zero(self):
        snap = row_normalize(sparse.csr_array(np.array([[0.0, 0.0], [1.0, 0.0]])))
        assert np.array_equal(snap.matrix.toarray(),
                              np.array([[0.0, 0.0], [1.0, 0.0]]))
        assert list(snap.dangling) == [1, 0]

    def test_proportions(self):
        snap = row_normalize(sparse.csr_array(np.array([[2.0, 3.0, 5.0],
                                                        [0.0, 0.0, 0.0],
                                                        [1.0, 0.0, 0.0]])))
        assert np.array_equal(snap.matrix.toarray()[0], np.array([0.2, 0.3, 0.5]))
        assert list(snap.dangling) == [0, 1, 0]

    def test_row_sums_within_tolerance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 40))
            B = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
            snap = row_normalize(sparse.csr_array(B))
            sums = np.asarray(snap.matrix.sum(axis=1)).ravel()
            alive = snap.dangling == 0
            assert np.abs(sums[alive] - 1.0).max(initial=0.0) <= 1e-12
            assert np.all(sums[~alive] == 0.0)

    def test_scale_invariance(self, rng):
        # Riemann-sum constants cancel, which is what makes the discrete and
        # continuous accumulations comparable at all
        for scale in (1e-6, 0.25, 3.0, 1e7):
            B = rng.random((10, 10)) * (rng.random((10, 10)) < 0.5)
            plain = row_normalize(sparse.csr_array(B)).matrix.toarray()
            scaled = row_normalize(sparse.csr_array(scale * B)).matrix.toarray()
            assert np.abs(plain - scaled).max() <= 1e-14


class TestAccumulateContinuous:
    def test_matches_closed_form_antiderivatives(self):
        # raw edge integrals against the decay kernel, alpha = 1
        net = synthetic_five_node()
        kernel = ExponentialDecay(1.0)
        quad = QuadratureConfig()
        functions = [net.edges[(i - 1, j - 1)] for (i, j) in oracles.SYNTHETIC_EDGES]
        for t in (0.3, 0.7, 1.0):
            got = adaptive_simpson(
                lambda s: kernel.weights(s, t) * np.array([fn(s) for fn in functions]),
                [0.0, t], quad)[:, 0]
            for value, (i, j) in zip(got, oracles.SYNTHETIC_EDGES):
                assert value == pytest.approx(
                    oracles.accumulated_weight(i, j, 1.0, t), abs=1e-8)

    @given(rate=st.floats(-6.0, 6.0), t=st.floats(0.0, 1.0, exclude_min=True))
    @example(rate=1.9, t=0.5)
    def test_edge_integrals_meet_the_tolerance(self, rate, t):
        net = synthetic_five_node()
        kernel = ExponentialDecay(rate)
        quad = QuadratureConfig(tol=1e-9)
        got = _edge_integrals(net, lambda s: kernel.weights(s, t), np.array([0.0, t]),
                              rate, quad)[:, 0]
        rows, cols, _ = net.edge_order
        exact = [oracles.accumulated_weight(i + 1, j + 1, rate, t)
                 for i, j in zip(rows.tolist(), cols.tolist())]
        assert np.abs(got - exact).max() <= quad.tol

    def test_normalized_rows_match_oracle(self):
        net = synthetic_five_node()
        snap = accumulate_continuous(net, ExponentialDecay(0.0), 1.0)
        # node 2 (1-based) points at 1, 3, 5 with raw weights from the oracle
        raw = np.array([oracles.accumulated_weight(2, j, 0.0, 1.0) for j in (1, 3, 5)])
        expected = raw / raw.sum()
        row = snap.matrix.toarray()[1]
        assert row[[0, 2, 4]] == pytest.approx(expected, abs=1e-9)
        assert row[[1, 3]] == pytest.approx(np.zeros(2), abs=0.0)

    def test_first_instant_uses_pointwise_adjacency(self):
        net = synthetic_five_node()
        snap = accumulate_continuous(net, ExponentialDecay(1.0), 0.0)
        # at t=0 only a14 = 1, a12 = a35 = 0.5 survive; row 1 splits 1/3, 2/3
        assert np.array_equal(snap.matrix.toarray()[0],
                              np.array([0.0, 1.0 / 3.0, 0.0, 2.0 / 3.0, 0.0]))
        assert list(snap.dangling) == [0, 0, 0, 0, 0]

    def test_first_instant_matches_discrete_first_instant(self):
        net = synthetic_five_node()
        kernel = ExponentialDecay(1.0)
        continuous = accumulate_continuous(net, kernel, 0.0)
        discrete = row_normalize(accumulate_discrete(truncate(net, 5), kernel, 1))
        assert np.array_equal(continuous.matrix.toarray(), discrete.matrix.toarray())
        assert np.array_equal(continuous.dangling, discrete.dangling)

    def test_time_outside_interval_rejected(self):
        net = synthetic_five_node()
        with pytest.raises(InvalidInputError):
            accumulate_continuous(net, ExponentialDecay(1.0), 1.5)

    def test_quadrature_failure_names_the_edge(self):
        net = synthetic_five_node()
        quad = QuadratureConfig(tol=1e-15, max_subdivisions=2)
        with pytest.raises(IntegrationError, match="edge"):
            accumulate_continuous(net, ExponentialDecay(6.0), 1.0, quad)


class TestTruncate:
    def test_uniform_partition(self):
        net = synthetic_five_node()
        assert np.array_equal(truncate(net, 5).instants,
                              np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert np.array_equal(truncate(net, 2).instants, np.array([0.0, 1.0]))

    def test_snapshots_sample_the_edge_functions(self):
        net = synthetic_five_node()
        trunc = truncate(net, 5)
        # a12(0.5) = 0.5*(sin(pi) + 1) = 0.5
        assert trunc.snapshot_at(3)[0, 1] == pytest.approx(0.5, abs=1e-15)
        # a25(0.75) = 0.75^2
        assert trunc.snapshot_at(4)[1, 4] == pytest.approx(0.5625, abs=1e-15)

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            truncate(synthetic_five_node(), 1)

    def test_node_count_carried_over(self):
        assert truncate(synthetic_five_node(), 3).n == 5


def overflow_network():
    """Two nodes on instants 0/500/1000: e^{500 |r|} stays finite, e^{1000 |r|} does not."""
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.0]])
    return DiscreteTemporalNetwork(2, np.array([0.0, 500.0, 1000.0]), (A, B, 2.0 * A))


class TestOverflowIsAnError:
    def test_reference_discrete_overflow_raises(self):
        with pytest.raises(TemporankError, match="overflows"):
            accumulate_discrete(overflow_network(), ExponentialDecay(-1.0), 3)

    def test_reference_continuous_overflow_raises(self):
        with pytest.raises(TemporankError, match="overflows"):
            accumulate_continuous(synthetic_five_node(), ExponentialDecay(-1000.0), 1.0)

    def test_non_finite_custom_kernel_raises(self):
        kernel = CustomDecay(lambda s, t: math.inf if s < t else 1.0)
        with pytest.raises(TemporankError, match="not finite"):
            accumulate_discrete(two_snapshot_network(), kernel, 2)

    @pytest.mark.parametrize("rate", [-1.0, 1.0, 5.0])
    def test_streamed_trajectory_is_finite_at_either_sign(self, rate):
        setups = list(iter_instants(overflow_network(), ExponentialDecay(rate),
                                    ConstantDamping(0.85)))
        # exact rows: B_2 has e^{-500 r} A_1 + A_2, so no row of it is zero
        assert list(setups[1].snapshot.dangling) == [0, 0]
        assert np.array_equal(setups[1].snapshot.matrix.toarray(),
                              np.array([[0.0, 1.0], [1.0, 0.0]]))
        for setup in setups:
            assert np.isfinite(setup.snapshot.matrix.data).all()


def discrete_networks():
    """Random small discrete nets with a rate whose weights stay in range.

    e^{|r| * span} < 1e300 keeps every reference weight a normal float,
    so the reference dangling mask is the exact one.
    """
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 6))
        count = draw(st.integers(1, 6))
        rate = draw(st.floats(-2.0, 6.0))
        gaps = draw(st.lists(st.floats(1e-3, 30.0), min_size=count, max_size=count))
        instants = np.cumsum(gaps)
        span = float(instants[-1] - instants[0])
        if abs(rate) * span >= math.log(1e300):
            scale = 0.99 * math.log(1e300) / (abs(rate) * span)
            instants = instants[0] + (instants - instants[0]) * scale
        cells = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
        snapshots = [np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n)))
                     .reshape(n, n) for _ in range(count)]
        return DiscreteTemporalNetwork(n, instants, snapshots), ExponentialDecay(rate)
    return build()


class TestStreamedAccumulation:
    @given(discrete_networks())
    def test_discrete_recurrence_matches_reference(self, case):
        net, kernel = case
        setups = list(iter_instants(net, kernel, ConstantDamping(0.5)))
        assert [setup.k for setup in setups] == list(range(1, net.instant_count + 1))
        for setup in setups:
            reference = row_normalize(accumulate_discrete(net, kernel, setup.k))
            assert setup.instant == reference.instant
            assert np.array_equal(setup.snapshot.dangling, reference.dangling)
            assert np.abs(setup.snapshot.matrix.toarray()
                          - reference.matrix.toarray()).max(initial=0.0) <= 1e-12

    @settings(max_examples=15)
    @given(rate=st.floats(0.0, 6.0),
           times=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
    @example(rate=1.9, times=[1.0, 0.5])
    def test_continuous_recurrence_matches_reference(self, rate, times):
        # quad.tol bounds the accumulated integral at every grid instant, as it
        # bounds each full-length integral of accumulate_continuous
        net = synthetic_five_node()
        kernel = ExponentialDecay(rate)
        quad = QuadratureConfig(tol=1e-9)
        times = np.sort(np.array(times))
        for t, matrix, log_scale in _continuous_accumulated(net, kernel, times, quad):
            streamed = np.exp(log_scale)[:, None] * matrix.toarray()
            for (i, j) in net.edges:
                exact = oracles.accumulated_weight(i + 1, j + 1, rate, t)
                assert abs(streamed[i, j] - exact) <= quad.tol
            if t > 0.0:
                snapshot = accumulate_continuous(net, kernel, t, quad)
                assert np.array_equal(row_normalize(matrix).dangling, snapshot.dangling)

    @pytest.mark.parametrize("rate", [-1e6, 1e4, 1e6, 1e8])
    def test_layer_at_large_rates_is_resolved(self, rate):
        # the weight's mass lies within 1/|rate| of one end of each 0.01-wide
        # piece, nearer than any quadrature node of the whole piece
        net = synthetic_five_node()
        times = np.linspace(0.0, 1.0, 101)[1:]
        nodes, weights = np.polynomial.legendre.leggauss(200)
        rows, cols, functions = net.edge_order
        q = abs(rate)
        for t, matrix, _ in _continuous_accumulated(net, ExponentialDecay(rate), times,
                                                    QuadratureConfig()):
            # B(t) up to a factor: the integral of e^{-u} a(s) over u in [0, q t],
            # with s = t - u / q (or u / q for a negative rate); e^{-60} is negligible
            u = 0.5 * min(q * t, 60.0) * (nodes + 1.0)
            s = t - u / q if rate > 0 else u / q
            exact = np.zeros((5, 5))
            exact[rows, cols] = [weights @ (np.exp(-u) * fn(s)) for fn in functions]
            expected = row_normalize(exact).matrix.toarray()
            assert np.abs(row_normalize(matrix).matrix.toarray() - expected).max() <= 1e-12
            if rate > 0:   # the reference path overflows for rates below zero
                for kernel in (ExponentialDecay(rate),
                               CustomDecay(lambda s, t: math.exp(-rate * (t - s)))):
                    snapshot = accumulate_continuous(net, kernel, t)
                    assert np.abs(snapshot.matrix.toarray() - expected).max() <= 1e-12

    def test_unsorted_grid_comes_back_in_caller_order(self):
        net = synthetic_five_node()
        grid = np.array([0.5, 0.0, 1.0, 0.25, 0.5])
        setups = list(iter_instants(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                    grid=grid))
        assert [setup.k for setup in setups] == [2, 4, 1, 5, 3]
        by_k = {setup.k: setup for setup in setups}
        for k, t in enumerate(grid, start=1):
            reference = accumulate_continuous(net, ExponentialDecay(1.0), t)
            assert by_k[k].instant == t
            assert np.abs(by_k[k].snapshot.matrix.toarray()
                          - reference.matrix.toarray()).max() <= 1e-9

    def test_grid_outside_interval_rejected(self):
        with pytest.raises(InvalidInputError, match="outside"):
            list(iter_instants(synthetic_five_node(), ExponentialDecay(1.0),
                               ConstantDamping(0.85), grid=[0.5, 1.5]))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_threads_setups_in_flight(self, threads):
        alive = set()
        peak = []

        def setups():
            for k in range(1, 11):
                alive.add(k)
                peak.append(len(alive))
                yield SimpleNamespace(k=k)

        def solve(setup):
            alive.discard(setup.k)
            return setup.k

        assert _run_instants(setups(), solve, threads) == list(range(1, 11))
        assert max(peak) <= threads


def compute_bytes(workdir, *argv) -> list[bytes]:
    """CLI `compute` output at --threads 1 and 2, as written to files."""
    outputs = []
    for threads in ("1", "2"):
        target = workdir / f"scores-{threads}.csv"
        code = cli.main(["compute", *argv, "--no-header", "--threads", threads,
                         "--output", str(target)])
        assert code == 0
        outputs.append(target.read_bytes())
    return outputs


class TestThreadCountIndependence:
    @settings(max_examples=10)
    @given(case=discrete_networks())
    def test_discrete_network(self, tmp_path_factory, case):
        net, kernel = case
        workdir = tmp_path_factory.mktemp("discrete")
        save_network(net, str(workdir / "net.txt"))
        one, two = compute_bytes(workdir, "--network", str(workdir / "net.txt"),
                                 f"--rate={kernel.rate!r}")
        assert one == two

    @settings(max_examples=5)
    @given(rate=st.floats(-4.0, 6.0), count=st.integers(2, 40))
    def test_preset(self, tmp_path_factory, rate, count):
        workdir = tmp_path_factory.mktemp("preset")
        one, two = compute_bytes(workdir, "--preset", "paper-synthetic",
                                 f"--rate={rate!r}", "--grid-count", str(count))
        assert one == two
