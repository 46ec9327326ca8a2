"""Temporal network data model and validation."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ContinuousTemporalNetwork,
    DiscreteTemporalNetwork,
    InvalidInputError,
    truncate,
    validate,
)
from temporank.graph import _entries_to_csr
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
        assert validate(two_instant_network()) == []

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
        assert validate(net) == []          # the summed weight, not -0.5, is checked

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
        # the array builder must give what scipy's COO -> CSR conversion gives
        n = 7
        items = sorted(entries.items())
        if items:
            expected = sparse.csr_array(
                (np.array([w for _, w in items], dtype=float),
                 (np.array([i for (i, _), _ in items], dtype=np.int64),
                  np.array([j for (_, j), _ in items], dtype=np.int64))), shape=(n, n))
        else:
            expected = sparse.csr_array((n, n))
        got = _entries_to_csr(entries, n)
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
        assert validate(net) == []

    def test_empty_interval_flagged(self):
        net = ContinuousTemporalNetwork(n=2, interval=(1.0, 1.0))
        assert any("empty" in p for p in validate(net))

    def test_edge_outside_node_range_flagged(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 5): parse("t")})
        assert any("outside node range" in p for p in validate(net))

    def test_negative_edge_function_flagged(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t - 0.5")})
        assert any("negative value" in p for p in validate(net))

    def test_edges_named_one_based(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0), edges={(0, 1): parse("t - 2")})
        assert validate(net) == ["edge (1, 2): negative value on sample grid"]

    def test_overflow_reported_without_a_warning(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1000.0), edges={(1, 0): parse("exp(t)")})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate(net) == ["edge (2, 1): non-finite value on sample grid"]

    def test_non_network_rejected(self):
        with pytest.raises(InvalidInputError):
            validate("not a network")


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
