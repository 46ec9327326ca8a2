"""The bundled synthetic five-node network."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from temporank import (ConstantDamping, ContinuousTemporalNetwork, ExponentialDecay,
                       InvalidInputError, UniformPersonalization, preset, synthetic_five_node,
                       trajectory_continuous, trajectory_discrete, truncate, PRESET_NAMES)
from temporank.timefuncs import parse


def test_preset_lookup():
    net = preset("paper-synthetic")
    assert net.n == 5
    assert net.interval == (0.0, 1.0)
    assert net.symmetric


def test_unknown_preset_lists_known_names():
    with pytest.raises(InvalidInputError, match="paper-synthetic"):
        preset("nope")


def test_preset_names():
    assert PRESET_NAMES == ("paper-synthetic",)


def test_validates_clean():
    # the constructor checks the network: a problem would raise here
    assert synthetic_five_node().n == 5


def test_edges_are_symmetric():
    net = synthetic_five_node()
    pairs = set(net.edges)
    assert {(j, i) for (i, j) in pairs} == pairs
    for (i, j), fn in net.edges.items():
        assert net.edges[(j, i)](0.37) == fn(0.37)


def test_values_at_time_zero():
    net = synthetic_five_node()
    at0 = {pair: fn(0.0) for pair, fn in net.edges.items()}
    assert at0[(0, 1)] == 0.5   # a12
    assert at0[(2, 4)] == 0.5   # a35
    assert at0[(2, 3)] == 0.0   # a34
    assert at0[(1, 4)] == 0.0   # a25
    assert at0[(0, 3)] == 1.0   # a14
    assert at0[(1, 2)] == 0.0   # a23


def test_expression_sources_preserved():
    net = synthetic_five_node()
    assert net.edges[(0, 1)].source == "0.5*(sin(2*pi*t)+1)"
    assert all(fn.source is not None for fn in net.edges.values())


def test_no_node_is_ever_dangling():
    # every node keeps positive out-weight on [0, 1]: a14 + a12 > 0 etc.
    net = synthetic_five_node()
    for t in np.linspace(0.0, 1.0, 41):
        sums = np.asarray(net.adjacency_at(t).sum(axis=1)).ravel()
        assert (sums > 0).all(), t


def discretization_errors(net, rate, sizes):
    """max |discrete - continuous| over the instants of truncate(net, N), for each N."""
    kwargs = dict(kernel=ExponentialDecay(rate), damping=ConstantDamping(0.85),
                  personalization=UniformPersonalization())
    errors = []
    for size in sizes:
        truncated = truncate(net, int(size))
        discrete = trajectory_discrete(truncated, **kwargs).vectors
        continuous = trajectory_continuous(net, grid=truncated.instants, **kwargs).vectors
        errors.append(np.abs(discrete - continuous).max())
    return np.array(errors)


#: the preset's edge shapes, each drawn scaled and shifted up as a*f(t) + b.  b >= 1/4 keeps
#: every weight away from 0, so P(t) turns no faster than the grids resolve: at b = 2^-8 a
#: row of (e^t - 1)/e and (e^t - 1)/e + b goes from (0, 1) to (1/3, 2/3) in the first 0.011
#: of [0, 1], a third of a step at N = 33, and the observed order from N = 33 to 65 is 0.82
SHAPES = sorted({fn.source for fn in synthetic_five_node().edges.values()})


@st.composite
def shaped_networks(draw):
    """Directed networks of 3-7 nodes on [0, 1], self-loops allowed, whose edges are the
    preset's shapes, scaled and shifted."""
    n = draw(st.integers(3, 7))
    edges = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        st.tuples(st.sampled_from(SHAPES), st.floats(0.5, 2.0), st.floats(0.25, 1.0)),
        min_size=1, max_size=2 * n))
    return ContinuousTemporalNetwork(n, (0.0, 1.0), {
        pair: parse(f"{scale!r}*({shape})+{shift!r}")
        for pair, (shape, scale, shift) in edges.items()})


@settings(max_examples=20, deadline=None)
@given(net=shaped_networks(), rate=st.floats(0.5, 3.0))
def test_discretization_is_first_order_on_random_networks(net, rate):
    # the observed order from N = 33 to 65 was 0.96-1.01 over 239 such draws; a network
    # whose rows each hold one edge, or keep their weights in proportion, has the same P
    # on both scales and no error
    errors = discretization_errors(net, rate, [33, 65])
    assume(errors[0] >= 1e-12)
    order = np.log2(errors[0] / errors[1])
    assert 0.95 <= order <= 1.05, (order, errors)


@pytest.mark.parametrize("rate", [-4.0, 1.0, 6.0])
def test_discretization_is_first_order(rate):
    # the discrete sum is a Riemann sum of the integral: the error e(N) of
    # truncate(net, N) halves as N - 1 doubles, so e(N) (N - 1) settles
    # (0.176-0.177 at rate -4, 0.093-0.094 at 1, 0.230-0.232 at 6)
    sizes = np.array([65, 129, 257])
    errors = discretization_errors(preset("paper-synthetic"), rate, sizes)
    orders = np.log2(errors[:-1] / errors[1:])
    assert ((0.97 <= orders) & (orders <= 1.01)).all(), orders
    scaled = errors * (sizes - 1)
    assert (np.abs(np.diff(scaled)) < 0.01 * scaled[:-1]).all(), scaled
