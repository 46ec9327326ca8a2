"""Temporal network data model, checked when a network is built."""

import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ConstantDamping,
    ContinuousTemporalNetwork,
    DiscreteTemporalNetwork,
    EdgeEvent,
    ExponentialDecay,
    InvalidInputError,
    QuadratureConfig,
    StochasticSnapshot,
    TemporankError,
    UniformPersonalization,
    bounds_for_node,
    bounds_trajectory,
    build_snapshots,
    dumps_network,
    kendall_tau,
    resolvent_column,
    row_normalize,
    sample_grid,
    trajectory_continuous,
    trajectory_discrete,
    truncate,
)
from temporank.graph import _sorted_entries, _stacked
from temporank.timefuncs import parse


def two_instant_network():
    return DiscreteTemporalNetwork(
        n=2,
        instants=np.array([0.0, 1.0]),
        snapshots=(np.array([[0.0, 1.0], [1.0, 0.0]]),
                   np.array([[0.0, 2.0], [0.0, 0.0]])),
    )


class TestDiscrete:
    def test_well_formed_network_validates(self):
        assert two_instant_network().instant_count == 2    # built, so no problem was found

    def test_snapshots_coerced_to_sparse(self):
        net = two_instant_network()
        assert all(sparse.issparse(a) for a in net.snapshots)

    def test_snapshots_stored_canonical(self):
        # entries of a row out of column order and a pair given twice
        given = sparse.csr_array((np.array([2.0, 1.0, -0.5, 3.0]), np.array([1, 0, 1, 0]),
                                  np.array([0, 3, 4])), shape=(2, 2))
        net = DiscreteTemporalNetwork(2, [0.0], (given,), initial_adjacency=given)
        for stored in (net.snapshot_at(1), net.initial_adjacency):
            assert stored.has_canonical_format
            assert stored.indices.tolist() == [0, 1, 0]
            assert stored.data.tolist() == [1.0, 1.5, 3.0]
        assert given.nnz == 4 and not given.has_canonical_format
        # built: the summed weight, not -0.5, is checked

    def test_snapshot_at_is_one_based(self):
        net = two_instant_network()
        assert net.snapshot_at(1)[0, 1] == 1.0
        assert net.snapshot_at(2)[0, 1] == 2.0
        with pytest.raises(InvalidInputError):
            net.snapshot_at(0)
        with pytest.raises(InvalidInputError):
            net.snapshot_at(3)

    # a discrete network is checked at construction, which names every problem

    def test_non_increasing_instants_flagged(self):
        with pytest.raises(InvalidInputError, match="^instants not strictly increasing$"):
            DiscreteTemporalNetwork(2, np.array([3.0, 3.0]),
                                    (np.zeros((2, 2)), np.zeros((2, 2))))

    def test_negative_weight_flagged(self):
        with pytest.raises(InvalidInputError, match="^snapshot 1: negative weight$"):
            DiscreteTemporalNetwork(2, np.array([0.0]),
                                    (np.array([[0.0, -1.0], [0.0, 0.0]]),))

    def test_shape_mismatch_flagged(self):
        with pytest.raises(InvalidInputError,
                           match=r"^snapshot 1: shape \(2, 2\), expected \(3, 3\)$"):
            DiscreteTemporalNetwork(3, np.array([0.0]), (np.zeros((2, 2)),))

    def test_count_mismatch_flagged(self):
        with pytest.raises(InvalidInputError, match="^2 instants but 1 snapshots$"):
            DiscreteTemporalNetwork(2, np.array([0.0, 1.0]), (np.zeros((2, 2)),))

    def test_initial_adjacency_checked_too(self):
        with pytest.raises(InvalidInputError, match="^initial adjacency: negative weight$"):
            DiscreteTemporalNetwork(
                2, np.array([0.0]), (np.zeros((2, 2)),),
                initial_adjacency=np.array([[0.0, -2.0], [0.0, 0.0]]))

    def test_every_problem_named_in_one_error(self):
        with pytest.raises(InvalidInputError) as caught:
            DiscreteTemporalNetwork(-1, [1.0, 0.0, np.inf],
                                    (np.array([[np.inf, -1.0], [0.0, 0.0]]),))
        assert str(caught.value) == "; ".join([
            "node count must not be negative, got -1", "3 instants but 1 snapshots",
            "instants contain non-finite values", "instants not strictly increasing",
            "snapshot 1: shape (2, 2), expected (-1, -1)", "snapshot 1: non-finite weight",
            "snapshot 1: negative weight"])


class TestEntriesToCsr:
    @given(st.dictionaries(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                           st.floats(0.0, 1e300)))
    def test_bit_identical_to_scipy_coo_build(self, entries):
        # a one-block record must read out as what scipy's COO -> CSR conversion gives
        n = 7
        items = sorted(entries.items())
        if items:
            expected = sparse.csr_array(
                (np.array([w for _, w in items], dtype=float),
                 (np.array([i for (i, _), _ in items], dtype=np.int64),
                  np.array([j for (_, j), _ in items], dtype=np.int64))), shape=(n, n))
        else:
            expected = sparse.csr_array((n, n))
        got = DiscreteTemporalNetwork._of_entries(
            n, [0.0], _stacked(n, [_sorted_entries(n, entries)]), 1).snapshot_at(1)
        assert got.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestContinuous:
    def test_symmetric_edges_mirrored(self):
        net = ContinuousTemporalNetwork(
            n=3, interval=(0.0, 1.0), edges={(0, 1): parse("t")}, symmetric=True)
        assert set(net.edges) == {(0, 1), (1, 0)}
        assert net.edges[(1, 0)](0.5) == 0.5

    def test_adjacency_at_evaluates_pointwise(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t**2")})
        A = net.adjacency_at(0.5)
        assert A[0, 1] == 0.25
        assert A.shape == (2, 2)

    def test_zero_values_dropped_from_adjacency(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t")})
        assert net.adjacency_at(0.0).nnz == 0

    def test_plain_numbers_and_callables_coerced(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0),
            edges={(0, 1): 0.5, (1, 0): lambda t: 2.0 * t})
        assert net.edges[(0, 1)](0.3) == 0.5
        assert net.edges[(1, 0)](0.3) == 0.6

    def test_well_formed_network_validates(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t")})
        assert net.edges[(0, 1)](0.5) == 0.5    # built, so no problem was found

    # a continuous network is checked at construction, which names every problem

    def test_empty_interval_flagged(self):
        with pytest.raises(InvalidInputError, match=r"^interval \[1\.0, 1\.0\] is empty$"):
            ContinuousTemporalNetwork(n=2, interval=(1.0, 1.0))

    def test_edge_outside_node_range_flagged(self):
        with pytest.raises(InvalidInputError,
                           match=r"^edge \(1, 6\) outside node range 1\.\.2$"):
            ContinuousTemporalNetwork(n=2, interval=(0.0, 1.0), edges={(0, 5): parse("t")})

    def test_negative_edge_function_flagged(self):
        with pytest.raises(InvalidInputError, match="negative value"):
            ContinuousTemporalNetwork(n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t - 0.5")})

    def test_edges_named_one_based(self):
        with pytest.raises(InvalidInputError,
                           match=r"^edge \(1, 2\): negative value on sample grid$"):
            ContinuousTemporalNetwork(n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t - 2")})

    def test_overflow_reported_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError,
                               match=r"^edge \(2, 1\): non-finite value on sample grid$"):
                ContinuousTemporalNetwork(n=2, interval=(0.0, 1000.0),
                                          edges={(1, 0): parse("exp(t)")})

    def test_non_network_rejected(self):
        # a node count that is not an integer, as for a discrete network
        with pytest.raises(InvalidInputError, match="^node count must be an integer, got '2'$"):
            ContinuousTemporalNetwork("2", (0.0, 1.0))

    def test_every_problem_named_in_one_error(self):
        with pytest.raises(InvalidInputError) as caught:
            ContinuousTemporalNetwork(-1, (0.0, np.inf), {(0, 5): 1.0})
        assert str(caught.value) == "; ".join([
            "node count must not be negative, got -1",
            "interval endpoints and length must be finite",
            "edge (1, 6) outside node range 1..-1"])


#: edge functions, several of them zero on part of [0, 1] or at its ends
EDGE_EXPRESSIONS = ("0", "0.0*t", "t", "1 - t", "t*t", "(t - 0.5)**2",
                    "sin(pi*t)", "0.5*(sin(2*pi*t)+1)", "exp(-t)", "3", "1e-300*t")


@st.composite
def continuous_networks(draw):
    n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n * n, unique=True))
    edges = {pair: parse(draw(st.sampled_from(EDGE_EXPRESSIONS))) for pair in pairs}
    return ContinuousTemporalNetwork(n, (0.0, 1.0), edges, symmetric=draw(st.booleans()))


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestEdgeOrder:
    @given(continuous_networks(),
           st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                    min_size=1, max_size=4))
    def test_adjacency_matches_coo_build_bit_for_bit(self, net, times):
        # several builds in a row: each must leave the shared edge order intact
        for t in times:
            assert_same_csr(net.adjacency_at(t), oracles.coo_adjacency_at(net, t))

    @given(continuous_networks(),
           st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0), max_size=6))
    def test_values_at_matches_scalar_calls_bit_for_bit(self, net, times):
        values = net.values_at(times)
        functions = net.edge_order.functions
        expected = np.array([[fn(t) for t in times] for fn in functions], dtype=float)
        assert values.shape == (len(functions), len(times))
        assert values.tobytes() == expected.reshape(values.shape).tobytes()

    @given(continuous_networks(), st.integers(2, 7))
    def test_truncate_matches_coo_build_bit_for_bit(self, net, count):
        truncated = truncate(net, count)
        expected = oracles.coo_truncate_snapshots(net, truncated.instants)
        for got, want in zip(truncated.snapshots, expected, strict=True):
            assert_same_csr(got, sparse.csr_array(want))

    def test_sorted_by_row_then_column(self):
        net = ContinuousTemporalNetwork(
            n=3, interval=(0.0, 1.0),
            edges={(2, 0): parse("3"), (0, 2): parse("t"), (0, 1): parse("1")})
        rows, cols, functions = net.edge_order
        assert rows.tolist() == [0, 0, 2] and cols.tolist() == [1, 2, 0]
        assert rows.dtype == cols.dtype == np.int64
        assert [fn.source for fn in functions] == ["1", "t", "3"]

    def test_dropping_zeros_keeps_the_shared_columns(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0),
            edges={(0, 0): parse("t"), (0, 1): parse("1"), (1, 0): parse("1 - t")})
        cols = net.edge_order.cols.copy()
        first = net.adjacency_at(0.0)
        assert first.nnz == 2 and first.indices.tolist() == [1, 0]
        assert np.array_equal(net.edge_order.cols, cols)
        assert net.adjacency_at(0.5).indices.tolist() == [0, 1, 0]
        assert first.indices.tolist() == [1, 0]
        values = np.array([0.0, 2.0, 0.0])
        assert net.edge_csr(values).data.tolist() == [2.0]
        assert values.tolist() == [0.0, 2.0, 0.0]

    def test_no_edges(self):
        net = ContinuousTemporalNetwork(n=3, interval=(0.0, 1.0))
        assert_same_csr(net.adjacency_at(0.5), oracles.coo_adjacency_at(net, 0.5))
        assert net.edge_csr([]).shape == (3, 3)


#: numbers of every kind a field may be given: ordinary, zero, negative, huge, not finite
ANY_FLOAT = st.sampled_from([0.0, 1.0, -1.0, 1e300, np.inf, -np.inf, np.nan]) | st.floats()
#: node counts that are negative or no integer at all
BAD_NODE_COUNTS = st.integers(-3, -1) | st.sampled_from(["2", 2.5, None, 2.0])
#: anything but a nonnegative number: non-finite, negative, not a number, not a scalar
BAD_WEIGHTS = ANY_FLOAT.filter(lambda w: not 0 <= w < np.inf) | st.sampled_from(
    ["x", None, [1.0], "t"])


def window(t):
    """1, but raises for t in (0.400, 0.405), between the samples a network is checked on."""
    if 0.400 < t < 0.405:
        raise ZeroDivisionError("window")
    return 1.0


@st.composite
def continuous_fields(draw):
    """Fields of a continuous network, each of up to two of them spoilt."""
    n = draw(st.integers(0, 6))
    t0 = draw(st.floats(-10.0, 10.0))
    fields = dict(n=n, interval=(t0, t0 + draw(st.floats(0.1, 10.0))),
                  edges=draw(st.dictionaries(
                      st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
                      st.builds(parse, st.sampled_from(EDGE_EXPRESSIONS)) | st.floats(0.0, 10.0)
                      | st.just(5e-324), max_size=4 if n else 0)),
                  symmetric=draw(st.booleans()))
    spoilt = dict(
        n=BAD_NODE_COUNTS,
        interval=st.tuples(ANY_FLOAT, ANY_FLOAT) | st.sampled_from(
            [(1.0, 1.0), (1.0, 0.0), (0.0, np.inf), (np.nan, 1.0), "ab", (0.0,), None,
             (0.0, 1.0, 2.0)]),
        edges=st.sampled_from([None, 5, "ab"]) | st.builds(
            lambda edges, key, weight: {**edges, key: weight}, st.just(fields["edges"]),
            st.tuples(st.integers(-1, n), st.integers(-1, n)) | st.sampled_from(
                [("0", 1), (0.5, 1), (0,), None]),
            BAD_WEIGHTS | st.builds(parse, st.sampled_from(
                ("t - 20", "-1", "exp(1000*t)", "1/(t - t)"))) | st.floats(0.0, 10.0)))
    for name in draw(st.sets(st.sampled_from(sorted(spoilt)), max_size=2)):
        fields[name] = draw(spoilt[name])
    return ContinuousTemporalNetwork, fields


@st.composite
def discrete_fields(draw):
    """Fields of a discrete network, each of up to two of them spoilt."""
    n = draw(st.integers(0, 6))
    count = draw(st.integers(1, 3))
    matrices = st.lists(st.floats(0.0, 10.0), min_size=n * n, max_size=n * n).map(
        lambda entries: np.reshape(entries, (n, n)))
    fields = dict(n=n, instants=draw(st.lists(st.floats(-10.0, 10.0), min_size=count,
                                              max_size=count, unique=True).map(sorted)),
                  snapshots=draw(st.lists(matrices, min_size=count, max_size=count)),
                  initial_adjacency=draw(st.none() | matrices))
    bad_matrices = st.sampled_from(["ab", None, [[0.0, 1.0], [1.0]], np.zeros((2, 2, 2)),
                                    np.zeros(n), np.zeros((n + 1, n)), np.asarray(1.0)]) \
        | st.builds(lambda w: np.full((n, n), w), BAD_WEIGHTS.filter(
            lambda w: isinstance(w, float)))
    spoilt = dict(
        n=BAD_NODE_COUNTS,
        instants=st.sampled_from([5.0, "abc", [[0.0]], None, fields["instants"][::-1] * 2])
        | st.lists(ANY_FLOAT, min_size=count, max_size=count),
        snapshots=st.sampled_from(["ab", 5, fields["snapshots"][1:]])
        | st.builds(lambda matrix: [matrix] + fields["snapshots"][1:], bad_matrices),
        initial_adjacency=bad_matrices)
    for name in draw(st.sets(st.sampled_from(sorted(spoilt)), max_size=2)):
        fields[name] = draw(spoilt[name])
    return DiscreteTemporalNetwork, fields


class TestDegenerateFields:
    """Every network is built or refused with a TemporankError; a built one can be used."""

    @given(fields=continuous_fields() | discrete_fields())
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, 1), edges={(0, 5): 1.0})))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, np.inf))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(1, 1))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(1, 0))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(np.nan, 1))))
    @example(fields=(ContinuousTemporalNetwork, dict(n="2", interval=(0, 1))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=0, interval=(0, 1))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=-1, interval=(0, 1))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, 1), edges={(0, 1): "x"})))
    @example(fields=(ContinuousTemporalNetwork,
                     dict(n=2, interval=(0, 1), edges={(0, 1): -1.0, (1, 0): np.nan})))
    @example(fields=(ContinuousTemporalNetwork,   # beyond the quadrature's absolute tol
                     dict(n=2, interval=(0, 1), edges={(0, 1): 1e300, (1, 0): 1.7e308})))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, 1e300))))
    @example(fields=(DiscreteTemporalNetwork, dict(n=2, instants=5.0,
                                                   snapshots=(np.zeros((2, 2)),))))
    @example(fields=(DiscreteTemporalNetwork, dict(n=2, instants=[0.0], snapshots="ab")))
    @example(fields=(DiscreteTemporalNetwork, dict(n=2, instants=[0.0],
                                                   snapshots=(np.zeros((2, 2, 2)),))))
    @example(fields=(DiscreteTemporalNetwork, dict(n=0, instants=[0.0],
                                                   snapshots=(np.zeros((0, 0)),))))
    @example(fields=(DiscreteTemporalNetwork, dict(n=2.0, instants=[0.0],
                                                   snapshots=(np.zeros((2, 2)),))))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, 1),
                                                     edges={(0, 1): math.log})))
    @example(fields=(ContinuousTemporalNetwork, dict(n=2, interval=(0, 1),
                                                     edges={(0, 1): window, (1, 0): 1.0})))
    def test_built_or_refused_cleanly(self, fields):
        cls, kwargs = fields
        try:
            net = cls(**kwargs)
        except TemporankError:
            return
        kernel, damping = ExponentialDecay(1.0), ConstantDamping(0.85)
        if cls is ContinuousTemporalNetwork:
            grid = np.linspace(net.t0, net.t1, 3)
            calls = [lambda: trajectory_continuous(net, kernel, damping,
                                                   UniformPersonalization(), grid),
                     lambda: bounds_trajectory(net, kernel, damping, grid=grid),
                     lambda: truncate(net, 3)]
        else:
            calls = [lambda: trajectory_discrete(net, kernel, damping, UniformPersonalization()),
                     lambda: bounds_trajectory(net, kernel, damping)]
        for call in calls:
            try:
                call()
            except TemporankError:
                pass

    def test_refusals_name_the_field(self):
        cases = [
            (lambda: ContinuousTemporalNetwork(2, (0, 1), {(0, 5): 1.0}),
             "edge (1, 6) outside node range 1..2"),
            (lambda: ContinuousTemporalNetwork(2, (0, np.inf)),
             "interval endpoints and length must be finite"),
            (lambda: ContinuousTemporalNetwork("2", (0, 1)),
             "node count must be an integer, got '2'"),
            (lambda: ContinuousTemporalNetwork(2, (0, 1), {(0, 1): "x"}),
             "edge (1, 2): weight 'x' is not a number"),
            (lambda: ContinuousTemporalNetwork(2, (0, 1), {("0", 1): 1.0}),
             "edge ('0', 1) is not a pair of node indices"),
            (lambda: ContinuousTemporalNetwork(2, None),
             "interval must be a pair of numbers, got None"),
            (lambda: ContinuousTemporalNetwork(2, (-1e308, 1e308)),
             "interval endpoints and length must be finite"),
            (lambda: DiscreteTemporalNetwork(2, 5.0, (np.zeros((2, 2)),)),
             "instants must be a 1-d sequence of numbers"),
            (lambda: DiscreteTemporalNetwork(2, [0.0], "ab"),
             "snapshots must be a sequence of matrices of numbers"),
            (lambda: DiscreteTemporalNetwork(2, [0.0], (np.zeros((2, 2, 2)),)),
             "snapshots must be a sequence of matrices of numbers"),
            (lambda: DiscreteTemporalNetwork(2, [0.0], (np.zeros((2, 2)),), "ab"),
             "initial adjacency must be a matrix of numbers"),
            (lambda: DiscreteTemporalNetwork(2.0, [0.0], (np.zeros((2, 2)),)),
             "node count must be an integer, got 2.0"),
        ]
        for build, message in cases:
            with pytest.raises(InvalidInputError) as caught:
                build()
            assert str(caught.value) == message

    def test_node_count_taken_as_an_index(self):
        for cls, args in [(ContinuousTemporalNetwork, ((0.0, 1.0),)),
                          (DiscreteTemporalNetwork, ([0.0], (np.zeros((3, 3)),)))]:
            net = cls(np.int64(3), *args)
            assert net.n == 3 and type(net.n) is int

    def test_callable_that_raises_names_the_edge_and_t(self):
        with pytest.raises(InvalidInputError) as caught:
            ContinuousTemporalNetwork(2, (0, 1), {(0, 1): lambda t: math.log(t)})
        assert str(caught.value) == \
            "edge (1, 2): the weight function raised ValueError('math domain error') at t=0.0"
        net = ContinuousTemporalNetwork(2, (0, 1), {(0, 1): window, (1, 0): 1.0})
        calls = [lambda: trajectory_continuous(net, ExponentialDecay(1.0), ConstantDamping(0.85),
                                               UniformPersonalization(), [0.0, 0.402, 1.0]),
                 lambda: net.adjacency_at(0.402),
                 lambda: truncate(net, 1001)]
        for call in calls:
            with pytest.raises(InvalidInputError, match=r"^edge \(1, 2\): the weight function "
                                                        r"raised ZeroDivisionError\('window'\) "
                                                        r"at t=0\.40"):
                call()


@st.composite
def zero_bearing_networks(draw, weights=st.floats(0.0, 10.0) | st.sampled_from(
        [0.0, 0.0, -0.0, 1.0, 1.0 / 3.0, 5e-324])):
    """Discrete networks built from canonical CSR matrices that store explicit zeros (-0.0
    among them), with empty snapshots and, half of the time, an initial adjacency."""
    n = draw(st.integers(1, 7))
    count = draw(st.integers(1, 4))

    def matrix():
        return oracles.entries_to_csr(draw(st.dictionaries(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), weights,
            max_size=draw(st.sampled_from([0, n, n * n])))), n)

    instants = sorted(draw(st.sets(st.floats(-100.0, 100.0), min_size=count,
                                   max_size=count)))
    initial = matrix() if draw(st.booleans()) else None
    return DiscreteTemporalNetwork(n, instants, tuple(matrix() for _ in instants), initial)


class TestSnapshotsStoredAsFloatCsr:
    def test_canonical_float_csr_is_kept_as_it_is(self):
        canonical = sparse.csr_array(np.array([[0.0, 1.0], [2.0, 0.0]]))
        net = DiscreteTemporalNetwork(2, [0.0], (canonical,), canonical)
        assert net.snapshots[0] is canonical and net.initial_adjacency is canonical

    def test_building_from_matrices_copies_none_of_them(self):
        # each matrix's weights are checked where they lie, so the constructor's peak
        # stays below the bytes of any one of the matrices it is given
        rng = np.random.default_rng(5)
        matrices = [sparse.random_array((2000, 2000), density=0.02, format="csr", rng=rng)
                    for _ in range(5)]
        smallest = min(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in matrices)
        tracemalloc.start()
        try:
            net = DiscreteTemporalNetwork(2000, range(5), matrices)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(got is given for got, given in zip(net.snapshots, matrices, strict=True))
        assert peak < smallest

    def test_integer_snapshots_are_stored_as_float64(self):
        dense = np.array([[0, 1], [1, 0]])
        for matrix in (dense, sparse.csr_array(dense), sparse.coo_array(dense)):
            net = DiscreteTemporalNetwork(2, [0.0], (matrix,), matrix)
            assert net.snapshots[0].dtype == net.initial_adjacency.dtype == np.float64
            assert dumps_network(net) == dumps_network(
                DiscreteTemporalNetwork(2, [0.0], (dense.astype(float),), dense.astype(float)))


SNAPSHOT = row_normalize(np.array([[0.0, 1.0], [0.0, 0.0]]))   # row 2 dangling
THREE_FLAGS = StochasticSnapshot(SNAPSHOT.matrix, np.array([0, 1, 0], dtype=np.int8), 0.0)
NAN, INF = math.nan, math.inf

#: (valid value, spoilt values) of the arguments of resolvent_column and bounds_for_node
RESOLVENT_ARGUMENTS = dict(
    snapshot=(SNAPSHOT, ["x", None, SNAPSHOT.matrix, THREE_FLAGS,
                         StochasticSnapshot(SNAPSHOT.matrix.toarray(), SNAPSHOT.dangling, 0.0)]),
    damping=(0.85, ["x", None, [0.5], 0.0, 1.0, -0.5, NAN]),
    node=(0, ["x", None, [0], -1, 2, 0.5, NAN]),
    u=([0.5, 0.5], [None, "x", [1.0], [0.5, 0.6], [-0.5, 1.5], [NAN, 1.0], [0.0, 1.0]]),
    tol=(1e-12, ["x", None, -1, 0.0, NAN, INF]))
SCORES = ([1.0, 2.0, 3.0], [["a", "b", "c"], None, [1.0], [1.0, NAN, 2.0], [1.0, INF, 2.0],
                            [1.0, 1.0, 1.0], [[1.0, 2.0], [3.0]]])

#: entry points that take no network: name -> (function, {argument: (valid, spoilt values)})
ENTRY_POINTS = {
    "resolvent_column": (partial(resolvent_column, snapshot=SNAPSHOT), RESOLVENT_ARGUMENTS),
    "bounds_for_node": (partial(bounds_for_node, snapshot=SNAPSHOT), RESOLVENT_ARGUMENTS),
    "kendall_tau": (kendall_tau, dict(x=SCORES, y=SCORES)),
    "build_snapshots": (partial(build_snapshots, [EdgeEvent(1, 2, 1, 0.0)]), dict(
        sample_instants=([0.0, 1.0], [["a"], "ab", [], [1.0, 0.0], [NAN], [[0.0]]]),
        n=(2, ["2", 2.5, 0, -1, 1]),
        instant_scale=(1.0, ["x", None, 0.0, -1.0, NAN, INF]))),
    "sample_grid": (sample_grid, dict(start=(0.0, ["x", None, NAN, INF]),
                                      step=(1.0, ["x", None, 0.0, -1.0, NAN]),
                                      count=(3, [2.5, "3", None, 0, -1]),
                                      unit=(1.0, ["x", None, 0.0, -1.0, NAN, INF]))),
    "QuadratureConfig": (QuadratureConfig, dict(
        tol=(1e-10, ["x", None, -1e-10, 0.0, NAN, INF]),
        max_subdivisions=(16, [-3, 2.5, "x", None]))),
}


@st.composite
def entry_calls(draw):
    """(entry point, arguments, whether any is spoilt): up to two arguments spoilt."""
    name = draw(st.sampled_from(sorted(ENTRY_POINTS)))
    arguments = ENTRY_POINTS[name][1]
    call = {key: valid for key, (valid, _) in arguments.items()}
    spoilt = draw(st.sets(st.sampled_from(sorted(arguments)), max_size=2))
    for key in spoilt:
        call[key] = draw(st.sampled_from(arguments[key][1]))
    return name, call, bool(spoilt)


class TestDegenerateArguments:
    """An entry point that takes no network refuses a spoilt argument with a TemporankError."""

    @given(case=entry_calls())
    @example(case=("resolvent_column", dict(damping="x", node=0, u=[0.5, 0.5], tol=1e-12),
                   True))
    @example(case=("resolvent_column", dict(damping=0.85, node=0, u=[0.5, 0.5], tol=-1),
                   True))
    @example(case=("bounds_for_node", dict(damping=0.85, node=0, u=[0.5, 0.5], tol=-1), True))
    @example(case=("kendall_tau", dict(x=["a", "b"], y=[1, 2]), True))
    @example(case=("build_snapshots", dict(sample_instants=[0.0], n="2"), True))
    @example(case=("build_snapshots", dict(sample_instants=[0.0], instant_scale="x"), True))
    @example(case=("build_snapshots", dict(sample_instants=["a"]), True))
    @example(case=("resolvent_column", dict(snapshot="x", damping=0.85, node=0,
                                            u=[0.5, 0.5], tol=1e-12), True))
    @example(case=("bounds_for_node", dict(snapshot=THREE_FLAGS, damping=0.85, node=0,
                                           u=[0.5, 0.5], tol=1e-12), True))
    @example(case=("sample_grid", dict(start=0, step=1, count=2.5), True))
    @example(case=("sample_grid", dict(start=0, step=1, count=3, unit="x"), True))
    @example(case=("QuadratureConfig", dict(tol=-1e-10), True))
    @example(case=("QuadratureConfig", dict(tol="x"), True))
    @example(case=("QuadratureConfig", dict(max_subdivisions=-3), True))
    def test_spoilt_argument_refused_cleanly(self, case):
        name, arguments, spoilt = case
        function = ENTRY_POINTS[name][0]
        if not spoilt:
            function(**arguments)
            return
        with pytest.raises(TemporankError):
            function(**arguments)
