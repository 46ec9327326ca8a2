"""Time-decayed accumulation and row-stochastic normalization."""

import math
import warnings
from dataclasses import replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    ContinuousTemporalNetwork,
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
    UniformPersonalization,
    synthetic_five_node,
    trajectory_continuous,
    trajectory_discrete,
    truncate,
)
from temporank import accumulate
from temporank.accumulate import (_continuous_terms, _edge_integrals, _exponential,
                                  _grouped, _instant_chunks)
from temporank.pagerank import _run_instants
from temporank.schedules import (InputPersonalization, InverseInputPersonalization,
                                 LinearDamping, damping_at, personalization_at)
from temporank.timefuncs import TimeFunction
from test_graph import assert_same_csr, continuous_networks, zero_bearing_networks


def instant_setups(net, kernel, damping, personalization=None, dangling_dist=None, grid=None,
                   quad=QuadratureConfig()):
    """The pipeline's one-instant chunks for power iteration and the Neumann series, in time
    order, as namespaces k, instant, snapshot, damping, v and u; a bad grid fails at the call."""
    chunks = _instant_chunks(net, kernel, damping, personalization, dangling_dist, grid, quad,
                             direct=False)[2]

    def setups():
        for ks, (snapshot,), _, (damping_k,), (v,), (u,) in chunks:
            (k,) = ks
            yield SimpleNamespace(k=k, instant=snapshot.instant, snapshot=snapshot,
                                  damping=damping_k, v=v, u=u)
    return setups()


def continuous_accumulated(net, kernel, times, quad):
    """(t, values, log_scale) at ascending ``times`` of the pipeline's continuous recurrence:
    B(t) = diag(e^{log_scale}) @ B0, B0 holding ``values[e]`` on edge e of the edge order
    (B(t0) = 0 here; the pipeline hands on A(t0) there instead)."""
    recurrence = _exponential(_continuous_terms(net, kernel, times, quad), net.n,
                              rows=net.edge_order.rows)
    for t, (values, log_scale) in zip(times.tolist(), recurrence):
        yield t, values.copy(), log_scale


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

    @pytest.mark.parametrize("t", ["x", None, [0.5, 0.6]])
    def test_time_not_a_number_rejected(self, t):
        with pytest.raises(InvalidInputError, match="instant must be a number, got "):
            accumulate_continuous(synthetic_five_node(), ExponentialDecay(1.0), t)

    def test_quadrature_failure_names_the_edge(self):
        net = synthetic_five_node()
        quad = QuadratureConfig(tol=1e-15, max_subdivisions=2)
        with pytest.raises(IntegrationError, match="edge"):
            accumulate_continuous(net, ExponentialDecay(6.0), 1.0, quad)

    @pytest.mark.parametrize("scale", ["1e7", "1e300"])
    def test_large_weights_integrate(self, scale):
        # quad_tol bounds each row relative to its power of two, not absolutely: at 1e7
        # an absolute panel test never passed, after 65536 subdivisions
        def network(scale):
            return ContinuousTemporalNetwork(3, (0.0, 1.0), {
                (0, 1): TimeFunction.parse(f"{scale}*(1+t)"),
                (0, 2): TimeFunction.parse(scale),
                (1, 2): TimeFunction.parse(f"{scale}*(2-t)")})

        got = accumulate_continuous(network(scale), ExponentialDecay(1.0), 0.7)
        want = accumulate_continuous(network("1"), ExponentialDecay(1.0), 0.7)
        assert np.abs(got.matrix.toarray() - want.matrix.toarray()).max() <= 1e-12
        assert np.array_equal(got.dangling, want.dangling)

    @given(st.data(), st.integers(-900, 900), st.floats(-3.0, 3.0))
    @settings(max_examples=60)
    def test_scaling_by_a_power_of_two_changes_no_bit(self, data, j, rate):
        # every weight times 2^j divides out exactly in each row's power of two.  The
        # expressions here lie in [0, 3] and are 0 or above 1e-20 wherever they are
        # sampled, so 2^-900 makes none of them subnormal and 2^900 none infinite.
        # Left out for that reason: EDGE_EXPRESSIONS' "1e-300*t", and grid instants
        # near 0, where "t" and "t*t" are as small; the grid is a multiple of 1/20
        n = data.draw(st.integers(1, 5))
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                   max_size=n * n, unique=True))
        shapes = [data.draw(st.sampled_from(["0", "t", "1 - t", "t*t", "sin(pi*t)",
                                             "0.5*(sin(2*pi*t)+1)", "exp(-t)", "3"]))
                  for _ in pairs]
        grid = data.draw(st.lists(st.integers(0, 20), min_size=1, max_size=5))
        grid = [k / 20 for k in grid]

        def ranks(factor):
            net = ContinuousTemporalNetwork(n, (0.0, 1.0), {
                pair: TimeFunction.parse(f"({shape})*{factor!r}")
                for pair, shape in zip(pairs, shapes)})
            return trajectory_continuous(net, ExponentialDecay(rate), ConstantDamping(0.85),
                                         UniformPersonalization(), grid).vectors

        assert ranks(math.ldexp(1.0, j)).tobytes() == ranks(1.0).tobytes()


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

    @pytest.mark.parametrize("count", [3.5, 3.0, "3", None])
    def test_non_integer_count_rejected(self, count):
        # 3.5 points used to give 4 instants, the last one past the interval
        with pytest.raises(InvalidInputError, match="integer count"):
            truncate(synthetic_five_node(), count)

    @pytest.mark.parametrize("count", [np.int64(3), np.int32(3), 3])
    def test_integer_types_accepted(self, count):
        assert np.array_equal(truncate(synthetic_five_node(), count).instants, [0.0, 0.5, 1.0])

    def test_node_count_carried_over(self):
        assert truncate(synthetic_five_node(), 3).n == 5

    @pytest.mark.parametrize("count", [2 ** 61, 2 ** 63, 10 ** 20])
    def test_count_beyond_an_array_refused(self, count):
        with pytest.raises(InvalidInputError, match="more points than an array can hold"):
            truncate(synthetic_five_node(), count)

    def test_partition_beyond_float_range_rejected(self):
        # the length of the interval is a float, twice it is not
        net = ContinuousTemporalNetwork(2, (0.0, 1e308), {(0, 1): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="leaves float range"):
                truncate(net, 3)
        assert truncate(net, 2).instants.tolist() == [0.0, 1e308]


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

    @pytest.mark.parametrize("solver", ["direct", "power"])
    def test_overflowing_sum_is_the_same_clean_error_on_either_route(self, solver):
        # 1e308 + 1e308: the dense route must report it as the sparse one does,
        # with no floating-point warning on the way
        A = np.array([[0.0, 1e308], [1.0, 0.0]])
        net = DiscreteTemporalNetwork(2, np.array([0.0, 1.0]), (A, A))
        with pytest.raises(InvalidInputError, match=r"^accumulated row 1 is not finite at t=1.0;"):
            trajectory_discrete(net, ExponentialDecay(0.0), ConstantDamping(0.85),
                                UniformPersonalization(), solver=solver)

    @pytest.mark.parametrize("solver", ["direct", "power"])
    def test_overflowing_integral_is_the_same_clean_error_on_either_route(self, solver):
        # a row is integrated divided by its power of two, here 1, so the size of its
        # weights cannot overflow it, but the length of the interval can: every
        # 8e306-wide piece integrates to 1.12e307, and their sum leaves float range at
        # t = 1.36e308, with no floating-point warning on the way
        net = ContinuousTemporalNetwork(2, (0.0, 1.6e308), {(0, 1): 1.4})
        with pytest.raises(InvalidInputError,
                           match=r"^accumulated row 1 is not finite at t=1\.36"):
            trajectory_continuous(net, ExponentialDecay(0.0), ConstantDamping(0.85),
                                  UniformPersonalization(), np.linspace(0.0, 1.6e308, 21),
                                  QuadratureConfig(tol=1e300), solver=solver)

    @pytest.mark.parametrize("rate", [-1.0, 1.0, 5.0])
    def test_streamed_trajectory_is_finite_at_either_sign(self, rate):
        setups = list(instant_setups(overflow_network(), ExponentialDecay(rate),
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


@st.composite
def scale_cases(draw):
    """(network, grid, rate) on either scale; the grid is None for a discrete network, which
    may store explicit zeros and an initial adjacency (no term of B)."""
    kind = draw(st.sampled_from(["discrete", "zero-bearing", "continuous"]))
    if kind == "discrete":
        net, kernel = draw(discrete_networks())
        return net, None, kernel.rate
    if kind == "zero-bearing":   # a span of at most 200, so e^{|rate| span} stays in range
        return draw(zero_bearing_networks()), None, draw(st.floats(-2.0, 2.0))
    grid = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                         min_size=1, max_size=8))
    return draw(continuous_networks()), grid, draw(st.floats(-2.0, 4.0))


class TestStreamedAccumulation:
    @settings(max_examples=60)
    @given(case=scale_cases(), custom=st.booleans(), entries=st.sampled_from([1, 30, 2 ** 20]))
    @example(case=(DiscreteTemporalNetwork(3, [0.0, 1.0], [sparse.csr_array((3, 3))] * 2,
                                           np.ones((3, 3))), None, 1.0),
             custom=False, entries=30)   # no snapshot entries: an empty pattern
    @example(case=(ContinuousTemporalNetwork(2, (-1.0, 1.0), {(0, 1): TimeFunction.parse("0*t"),
                                                              (1, 0): 1.0}),
                   [-1.0, 0.0, 1.0], 1.0),
             custom=False, entries=2 ** 20)   # A(t0) samples -0.0, no entry of P on either route
    def test_dense_and_csr_routes_agree_bit_for_bit(self, case, custom, entries):
        # B becomes P in one place on either route: each row of a direct
        # chunk's stack is that instant's CSR snapshot, densified
        net, grid, rate = case
        kernel = CustomDecay(lambda s, t: math.exp(-rate * (t - s))) if custom \
            else ExponentialDecay(rate)

        def chunks(direct):
            return _instant_chunks(net, kernel, ConstantDamping(0.85), None, None, grid,
                                   QuadratureConfig(), direct)[2]

        with mock.patch.object(accumulate, "_CHUNK_ENTRIES", entries):
            stacked = [(row, flags) for _, stack, dangling, *_ in chunks(True)
                       for row, flags in zip(stack, dangling)]
        snapshots = [snapshot for _, (snapshot,), *_ in chunks(False)]
        assert len(stacked) == len(snapshots) == len(net.instants if grid is None else grid)
        for (row, flags), snapshot in zip(stacked, snapshots):
            assert row.tobytes() == snapshot.matrix.toarray().tobytes()
            assert flags.dtype == snapshot.dangling.dtype
            assert flags.tobytes() == snapshot.dangling.tobytes()

    @given(discrete_networks())
    def test_discrete_recurrence_matches_reference(self, case):
        net, kernel = case
        setups = list(instant_setups(net, kernel, ConstantDamping(0.5)))
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
        for t, values, log_scale in continuous_accumulated(net, kernel, times, quad):
            matrix = net.edge_csr(values)
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
        for t, values, _ in continuous_accumulated(net, ExponentialDecay(rate), times,
                                                   QuadratureConfig()):
            matrix = net.edge_csr(values)
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
        setups = list(instant_setups(net, ExponentialDecay(1.0), ConstantDamping(0.85),
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
            list(instant_setups(synthetic_five_node(), ExponentialDecay(1.0),
                               ConstantDamping(0.85), grid=[0.5, 1.5]))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_at_most_threads_setups_in_flight(self, threads):
        alive, peak, solved = set(), [], []

        def setups():
            for k in range(1, 11):
                alive.add(k)
                peak.append(len(alive))
                yield SimpleNamespace(k=k)

        def solve(setup):
            solved.append(setup.k)
            alive.discard(setup.k)
            return (np.array([setup.k]),)

        ks, = _run_instants(setups(), solve, np.arange(10), threads)
        assert ks.tolist() == list(range(1, 11))
        assert max(peak) <= threads
        assert sorted(solved) == list(range(1, 11))


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


def reference_setups(net, kernel, damping, personalization, dangling_dist, grid, quad):
    """Setups assembled per instant, each A(t) built from the per-edge scalar evaluators."""
    grid = np.asarray(grid, dtype=float)
    order = np.argsort(grid, kind="stable")
    times = grid[order]
    if isinstance(kernel, ExponentialDecay):
        streamed = [replace(row_normalize(oracles.coo_edge_matrix(net, values)), instant=t)
                    for t, values, _ in continuous_accumulated(net, kernel, times, quad)]
    else:
        streamed = [None if t == net.t0 else accumulate_continuous(net, kernel, t, quad)
                    for t in times]
    setups = []
    for position, t, snapshot in zip(order, times.tolist(), streamed):
        k, adjacency = int(position) + 1, oracles.coo_adjacency_at(net, t)
        if t == net.t0:
            snapshot = replace(row_normalize(adjacency), instant=t)
        v = personalization_at(personalization, adjacency, k, t)
        u = None
        if dangling_dist is not None and snapshot.dangling.any():
            u = personalization_at(dangling_dist, adjacency, k, t)
        setups.append(SimpleNamespace(k=k, instant=t, snapshot=snapshot,
                                      damping=damping_at(damping, k, len(grid), t), v=v, u=u))
    return setups


def assert_same_array(got, expected):
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


class TestGridSampledOnce:
    @settings(max_examples=30)
    @given(net=continuous_networks(), rate=st.floats(-2.0, 4.0), custom=st.booleans(),
           times=st.lists(st.sampled_from([0.5, 1.0]) | st.floats(0.0, 1.0), max_size=5),
           personalization=st.sampled_from([InputPersonalization(),
                                            InverseInputPersonalization()]),
           dangling_dist=st.sampled_from([None, InputPersonalization(),
                                          InverseInputPersonalization()]),
           data=st.data())
    def test_setups_match_per_instant_scalar_build(self, net, rate, custom, times,
                                                   personalization, dangling_dist, data):
        # t0 and a repeated instant in every grid, in a drawn order; a custom
        # kernel takes the per-instant reference path for B
        grid = data.draw(st.permutations([0.0, *times, ([0.0, *times])[-1]]))
        kernel = CustomDecay(lambda s, t: math.exp(-rate * (t - s))) if custom \
            else ExponentialDecay(rate)
        damping, quad = LinearDamping(0.3, 0.9), QuadratureConfig()
        got = list(instant_setups(net, kernel, damping, personalization, dangling_dist,
                                 grid=grid, quad=quad))
        expected = reference_setups(net, kernel, damping, personalization, dangling_dist,
                                    grid, quad)
        assert len(got) == len(expected)
        for setup, reference in zip(got, expected):
            assert (setup.k, setup.instant, setup.damping) == \
                (reference.k, reference.instant, reference.damping)
            assert_same_csr(setup.snapshot.matrix, reference.snapshot.matrix)
            assert_same_array(setup.snapshot.dangling, reference.snapshot.dangling)
            assert setup.snapshot.instant == reference.snapshot.instant
            assert_same_array(setup.v, reference.v)
            assert_same_array(setup.u, reference.u)

    def test_each_edge_is_sampled_once_per_trajectory(self):
        base = synthetic_five_node()
        calls = {pair: [] for pair in base.edges}

        def recording(pair, fn):
            def array_fn(t):
                calls[pair].append(np.array(t))
                return fn(t)
            return TimeFunction(None, array_fn)

        net = ContinuousTemporalNetwork(
            base.n, base.interval, {pair: recording(pair, fn) for pair, fn in base.edges.items()})
        grid = np.array([0.5, 0.0, 1.0, 0.25, 0.5])
        setups = list(instant_setups(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                    InputPersonalization(), InputPersonalization(), grid=grid))
        assert len(setups) == len(grid)
        for pair, arguments in calls.items():
            # the quadrature's nodes lie strictly inside its panels, never on a grid instant
            sampled = [t for t in arguments if np.isin(t, grid).all()]
            assert len(sampled) == 1, pair
            assert np.array_equal(sampled[0], np.sort(grid))
            assert all(t.ndim == 1 for t in arguments), pair


class TestNormalizeColumns:
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), count=st.integers(0, 6),
           full_row=st.booleans())
    def test_row_sums_over_nonzeros_match_row_normalize(self, seed, n, count, full_row):
        # values over 16 decades and rows of up to 12 entries, so the order of
        # the additions shows in the bits; an explicit zero would shift it.
        # _grouped normalizes B on every route: vectors on the edge order for
        # the dense stack and for CSR snapshots, and CSR B one instant at a time
        rng = np.random.default_rng(seed)
        mask = rng.random((n, n)) < rng.uniform(0.0, 1.0)
        mask[0] |= full_row
        rows, cols = np.nonzero(mask)
        net = ContinuousTemporalNetwork(
            n, (0.0, 1.0), {(int(i), int(j)): 1.0 for i, j in zip(rows, cols)})
        values = rng.uniform(0.0, 1.0, (len(rows), count)) \
            * 10.0 ** rng.integers(-8, 8, (len(rows), count))
        values[rng.random(values.shape) < 0.3] = 0.0
        raw = list(net.edge_csrs(values))
        assert len(raw) == count
        expected = []
        for matrix, column in zip(raw, values.T):
            adjacency = oracles.coo_edge_matrix(net, column)
            assert_same_csr(matrix, adjacency)
            expected.append(oracles.row_normalize_csr(adjacency))

        def grouped(dense, csr):   # (P, dangling) per instant
            steps = [(float(k), matrix if csr else column, k)
                     for k, (matrix, column) in enumerate(zip(raw, values.T))]
            chunks = _grouped(steps, 1 if csr else max(count, 1), dense, n,
                              None if csr else net.edge_order)
            return [pair for transitions, dangling, _ in chunks
                    for pair in zip(transitions, dangling)]

        for dense, csr in [(True, False), (False, False), (False, True)]:
            route = grouped(dense, csr)
            assert len(route) == count
            for (P, dangling), (matrix, expected_dangling) in zip(route, expected):
                if dense:
                    assert P.tobytes() == matrix.toarray().tobytes()
                else:
                    assert P.matrix.data.tobytes() == matrix.data.tobytes()
                    assert P.matrix.toarray().tobytes() == matrix.toarray().tobytes()
                    assert_same_array(P.dangling, expected_dangling)
                assert_same_array(dangling, expected_dangling)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12))
    def test_row_normalize_matches_scipy_row_sums(self, seed, n):
        # explicit zeros are stored entries: scipy's csr.sum adds them, and
        # so does row_normalize
        rng = np.random.default_rng(seed)
        B = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.integers(-8, 8, (n, n))
        B[rng.random((n, n)) < 0.3] = 0.0
        matrix = sparse.csr_array(B)
        matrix.data[rng.random(matrix.nnz) < 0.2] = 0.0
        expected, expected_dangling = oracles.row_normalize_csr(matrix)
        snapshot = row_normalize(matrix)
        assert_same_csr(snapshot.matrix, expected)
        assert_same_array(snapshot.dangling, expected_dangling)
