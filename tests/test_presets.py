"""The bundled synthetic five-node network."""

import numpy as np
import pytest

from temporank import (ConstantDamping, ExponentialDecay, InvalidInputError,
                       UniformPersonalization, preset, synthetic_five_node, trajectory_continuous,
                       trajectory_discrete, truncate, PRESET_NAMES)


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


@pytest.mark.parametrize("rate", [-4.0, 1.0, 6.0])
def test_discretization_is_first_order(rate):
    # the discrete sum is a Riemann sum of the integral: the error e(N) of
    # truncate(net, N) halves as N - 1 doubles, so e(N) (N - 1) settles
    # (0.176-0.177 at rate -4, 0.093-0.094 at 1, 0.230-0.232 at 6)
    net = preset("paper-synthetic")
    kwargs = dict(kernel=ExponentialDecay(rate), damping=ConstantDamping(0.85),
                  personalization=UniformPersonalization())
    sizes = np.array([65, 129, 257])
    errors = []
    for size in sizes:
        truncated = truncate(net, int(size))
        discrete = trajectory_discrete(truncated, **kwargs).vectors
        continuous = trajectory_continuous(net, grid=truncated.instants, **kwargs).vectors
        errors.append(np.abs(discrete - continuous).max())
    errors = np.array(errors)
    orders = np.log2(errors[:-1] / errors[1:])
    assert ((0.97 <= orders) & (orders <= 1.01)).all(), orders
    scaled = errors * (sizes - 1)
    assert (np.abs(np.diff(scaled)) < 0.01 * scaled[:-1]).all(), scaled
