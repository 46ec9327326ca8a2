"""The plain-text network description format."""

import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from temporank import (
    ContinuousTemporalNetwork,
    DiscreteTemporalNetwork,
    NetworkFormatError,
    dumps_network,
    load_network,
    loads_network,
    save_network,
    synthetic_five_node,
)
from temporank import netfile
from temporank.timefuncs import TimeFunction

CONTINUOUS = """\
# a two-node demo
nodes 2
interval 0.0 1.0
edge 1 2 0.5*(sin(2*pi*t)+1)
edge 2 1 t**2
"""

DISCRETE = """\
nodes 3
instant 0.0
1 2 1.5
2 3 0.25
instant 1.0
1 2 2.0
"""


class TestLoad:
    def test_continuous_file(self):
        net = loads_network(CONTINUOUS)
        assert isinstance(net, ContinuousTemporalNetwork)
        assert net.n == 2
        assert net.interval == (0.0, 1.0)
        assert net.edges[(0, 1)](0.25) == pytest.approx(1.0)
        assert net.edges[(1, 0)](0.5) == 0.25

    def test_symmetric_keyword_mirrors_edges(self):
        net = loads_network("nodes 2\nsymmetric\ninterval 0 1\nedge 1 2 t\n")
        assert set(net.edges) == {(0, 1), (1, 0)}

    def test_discrete_file(self):
        net = loads_network(DISCRETE)
        assert isinstance(net, DiscreteTemporalNetwork)
        assert np.array_equal(net.instants, np.array([0.0, 1.0]))
        assert net.snapshot_at(1)[0, 1] == 1.5
        assert net.snapshot_at(1)[1, 2] == 0.25
        assert net.snapshot_at(2)[0, 1] == 2.0

    def test_initial_block(self):
        net = loads_network("nodes 2\ninitial\n1 2 3.0\ninstant 0.0\n2 1 1.0\n")
        assert net.initial_adjacency[0, 1] == 3.0
        assert net.snapshot_at(1)[1, 0] == 1.0

    def test_empty_instant_block_is_fine(self):
        net = loads_network("nodes 2\ninstant 0.0\ninstant 1.0\n1 2 1.0\n")
        assert net.snapshot_at(1).nnz == 0

    def test_expression_with_spaces_survives(self):
        net = loads_network("nodes 2\ninterval 0 1\nedge 1 2 0.5 * (t + 1)\n")
        assert net.edges[(0, 1)](1.0) == 1.0

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(CONTINUOUS)
        assert load_network(path).n == 2
        assert load_network(str(path)).n == 2


class TestErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("interval 0 1\nedge 1 2 t\n", "before `nodes`"),
        ("nodes 2\nnodes 2\n", "duplicate `nodes`"),
        ("nodes 0\n", "must be positive"),
        ("nodes 2\nedge 1 2 t\n", "missing `interval`"),
        ("nodes 2\ninterval 1 1\nedge 1 2 t\n", "empty"),
        ("nodes 2\ninterval 0 1\ninterval 0 2\nedge 1 2 t\n", "duplicate `interval`"),
        ("nodes 2\ninterval 0 1\nedge 1 3 t\n", "outside 1..2"),
        ("nodes 2\ninterval 0 1\nedge 1 2 t\nedge 1 2 t\n", "duplicate edge"),
        ("nodes 2\nsymmetric\ninterval 0 1\nedge 1 2 t\nedge 2 1 t\n", "already implied"),
        ("nodes 2\ninterval 0 1\nedge 1 2 tan(t)\n", "bad edge expression"),
        ("nodes 2\ninterval 0 1\nedge 1 2 t\ninstant 0\n", "cannot mix"),
        ("nodes 2\ninstant 0\n1 2 1\nedge 1 2 t\n", "cannot mix"),
        ("nodes 2\nsymmetric\ninstant 0\n1 2 1\n", "applies only to edge files"),
        ("nodes 2\n1 2 1.0\n", "unknown construct"),
        ("nodes 2\ninstant 0\n1 2 -1.0\n", "nonnegative"),
        ("nodes 2\ninstant 0\n1 2 1\n1 2 2\n", "duplicate entry"),
        ("nodes 2\ninstant 0\n1 2\n", "expected `<i> <j> <w>`"),
        ("nodes 2\ninstant zero\n", "not a number"),
        ("nodes 2\n", "neither edges nor instants"),
        ("", "missing `nodes`"),
        ("nodes 2\ninstant 1\n1 2 1\ninstant 0\n1 2 1\n", "not strictly increasing"),
    ])
    def test_grammar_violations(self, text, fragment):
        with pytest.raises(NetworkFormatError, match=fragment):
            loads_network(text)

    def test_errors_carry_line_numbers(self):
        with pytest.raises(NetworkFormatError, match="line 3"):
            loads_network("nodes 2\ninterval 0 1\nedge 1 5 t\n")

    def test_opaque_callable_cannot_be_written(self):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0),
            edges={(0, 1): TimeFunction.from_callable(lambda t: t)})
        with pytest.raises(NetworkFormatError, match="opaque callable"):
            dumps_network(net)

    def test_non_network_rejected(self):
        with pytest.raises(NetworkFormatError):
            dumps_network({"not": "a network"})


class TestRoundTrip:
    def test_continuous_round_trip(self):
        net = loads_network(CONTINUOUS)
        again = loads_network(dumps_network(net))
        assert again.n == net.n
        assert again.interval == net.interval
        for pair, fn in net.edges.items():
            assert again.edges[pair].source == fn.source

    def test_synthetic_round_trip_preserves_values(self):
        net = synthetic_five_node()
        again = loads_network(dumps_network(net))
        ts = np.linspace(0.0, 1.0, 11)
        for pair, fn in net.edges.items():
            assert np.array_equal(again.edges[pair](ts), fn(ts))

    def test_discrete_round_trip_is_exact_with_awkward_floats(self, rng, tmp_path):
        # shortest round-trip reprs must reproduce every bit
        n = 4
        instants = np.array([0.1, 0.2 + 1e-13, math.pi])
        snapshots = []
        for _ in instants:
            A = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            A[0, 1] = 1.0 / 3.0
            snapshots.append(A)
        net = DiscreteTemporalNetwork(n, instants, tuple(snapshots),
                                      initial_adjacency=np.eye(n) * 0.7)
        path = tmp_path / "net.txt"
        save_network(net, path)
        again = load_network(path)
        assert np.array_equal(again.instants, net.instants)
        assert np.array_equal(again.initial_adjacency.toarray(),
                              net.initial_adjacency.toarray())
        for k in range(1, 4):
            assert np.array_equal(again.snapshot_at(k).toarray(),
                                  net.snapshot_at(k).toarray())

    def test_duplicate_csr_entries_are_summed(self):
        # a CSR matrix may hold (0, 1) twice; the file must hold it once
        snap = sparse.csr_array((np.array([1.0, 2.0, 0.5]), np.array([1, 1, 0]),
                                 np.array([0, 3, 3])), shape=(2, 2))
        net = DiscreteTemporalNetwork(2, [0.0], (snap,), initial_adjacency=snap)
        text = dumps_network(net)
        assert text == "nodes 2\ninitial\n1 1 0.5\n1 2 3.0\ninstant 0.0\n1 1 0.5\n1 2 3.0\n"
        again = loads_network(text)
        assert np.array_equal(again.snapshot_at(1).toarray(), snap.toarray())
        assert net.snapshot_at(1).nnz == 3      # the network itself is untouched

    def test_save_to_file_object(self):
        buffer = io.StringIO()
        save_network(loads_network(DISCRETE), buffer)
        assert loads_network(buffer.getvalue()).n == 3


# ---------------------------------------------------------------------------
# the block parser against the per-line reference parser

def reference(text):
    """The per-line parser over the lines a text-mode file read gives."""
    return netfile._parse(io.StringIO(text, newline=None))


def fingerprint(net):
    """Everything a loaded network is made of, down to array bytes and dtypes."""
    if isinstance(net, ContinuousTemporalNetwork):
        return ("continuous", net.n, net.interval, net.symmetric,
                sorted((pair, fn.source) for pair, fn in net.edges.items()))
    matrices = list(net.snapshots)
    if net.initial_adjacency is not None:
        matrices.append(net.initial_adjacency)
    return ("discrete", net.n, net.instants.dtype.str, net.instants.tobytes(),
            net.initial_adjacency is None,
            [(m.shape, *((a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)))
             for m in matrices])


def outcome(parse, text):
    try:
        return ("ok", fingerprint(parse(text)))
    except Exception as err:  # any failure must be the same failure
        return (type(err).__name__, str(err), getattr(err, "line_number", None))


PAD = st.sampled_from(["", " ", "\t", "  \t"])
SEP = st.sampled_from([" ", "\t", "  ", " \t "])
FILLER = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented 1 2 3", "#"])
WEIGHT_WORDS = ["0", "-0", "0.0", "1e2", "1E-3", ".5", "5.", "+3", "1_0", "1_0.5",
                "007", "1e-320", "2.5e+300"]


@st.composite
def index_tokens(draw, i):
    forms = [str(i), f"+{i}", f"0{i}", f"00{i}"]
    if i >= 10:
        forms.append(f"{str(i)[0]}_{str(i)[1:]}")
    return draw(st.sampled_from(forms))


@st.composite
def weight_tokens(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(WEIGHT_WORDS))
    w = draw(st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))
    return draw(st.sampled_from([repr(w), f"{w:.3e}", f"+{w!r}", f"{w:.17g}"]))


@st.composite
def discrete_files(draw):
    """Lines of a valid discrete file, and the index of each block's first line."""
    n = draw(st.integers(1, 12))
    lines = draw(st.lists(FILLER, max_size=2))
    lines.append(f"{draw(PAD)}nodes{draw(SEP)}{n}{draw(PAD)}")
    count = draw(st.integers(1, 4))
    instants = sorted(draw(st.sets(st.floats(-1e3, 1e3, allow_nan=False),
                                   min_size=count, max_size=count)))
    headers = [f"{draw(PAD)}instant{draw(SEP)}{t!r}{draw(PAD)}" for t in instants]
    if draw(st.booleans()):
        headers.insert(draw(st.integers(0, count)), f"{draw(PAD)}initial{draw(PAD)}")
    starts = []
    for header in headers:
        starts.append(len(lines))
        lines.append(header)
        pairs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                              unique=True, max_size=12))
        for i, j in pairs:
            lines.extend(draw(st.lists(FILLER, max_size=1)))
            lines.append(f"{draw(PAD)}{draw(index_tokens(i))}{draw(SEP)}"
                         f"{draw(index_tokens(j))}{draw(SEP)}{draw(weight_tokens())}"
                         f"{draw(PAD)}")
    return lines, starts


def joined(lines, trailing=True):
    return "\n".join(lines) + ("\n" if trailing else "")


class TestBlockParser:
    @given(case=discrete_files(), trailing=st.booleans())
    def test_valid_files_load_bit_identically_without_fallback(self, case, trailing):
        text = joined(case[0], trailing)
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")):
            fast = outcome(loads_network, text)
        assert fast[0] == "ok", fast
        assert fast == outcome(reference, text)

    @given(case=discrete_files(), run=st.integers(1, 4), trailing=st.booleans())
    def test_short_tokenizer_runs_change_nothing(self, case, run, trailing):
        # the block parser tokenizes `run` lines at a time; run boundaries must not show
        text = joined(case[0], trailing)
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")), \
                mock.patch.object(netfile, "_FIELD_LINES", run):
            fast = outcome(loads_network, text)
        assert fast == outcome(reference, text)

    @given(case=discrete_files(), data=st.data())
    def test_corrupt_files_fail_identically(self, case, data):
        lines, starts = case
        n = int(lines[starts[0] - 1].split()[1])
        triples = [k for k, line in enumerate(lines)
                   if line.split() and line.split()[0][0] in "+0123456789"]
        bad = data.draw(st.sampled_from([
            "1 2", "1 2 3 4", "0 1 1.0", f"{n + 1} 1 1.0", "1 -1 1.0", "1.5 1 1.0",
            "x 1 1.0", "1e1 1 1.0", "9" * 25 + " 1 1.0", "1 1 nan", "1 1 inf",
            "1 1 -1", "1 1 -1e-3", "1 1 infinity", "1 1 1,5", "foo", "foo 1 2",
            "instants 1", "nodes 3", "symmetric", "interval 0 1", "edge 1 1 t",
            "initial", "instant 1e9", "1 1 1.0\r", "1 1 1.0 # note", "# caf\u00e9",
            "1\x0b1 1.0"]))
        if triples and data.draw(st.booleans()):
            source = data.draw(st.sampled_from(triples))   # a duplicate, later on
            at = data.draw(st.integers(source + 1, len(lines)))
            lines = lines[:at] + [lines[source]] + lines[at:]
        else:
            at = data.draw(st.integers(0, len(lines)))
            lines = lines[:at] + [bad] + lines[at:]
        text = joined(lines)
        assert outcome(loads_network, text) == outcome(reference, text)

    @pytest.mark.parametrize("text", [
        "nodes 2\n1 2 1.0\ninstant 0\n",             # triple before any block
        "nodes 2\ninstant 0\n1 2 1\n# c\n1 2 2\n",   # duplicate across a comment
        "nodes 2\ninstant 0\n1 2\t1\n2\n",          # one token
        "nodes 2\ninstant 0\n1 2 1 2\n",             # four tokens
        "nodes 2\ninitial\n1 2 1\ninitial\n",        # duplicate block
        "nodes 2\ninstant 0\n1 2 1\ninterval 0 1\n",  # ends up continuous
        "nodes 2\ninstant 0\n1 2 1\n1 2 1\nedge 1 2 t\n",  # the duplicate comes first
        "nodes 2\ninstant 0\n1 99999999999999999999999 1\n",
    ])
    def test_known_corruptions(self, text):
        assert outcome(loads_network, text) == outcome(reference, text)

    def test_windows_line_endings_take_the_block_parser(self, tmp_path):
        text = "# made elsewhere\nnodes 3\ninstant 0.5\n1 2 1.5\n3 1 2\ninitial\n2 2 1\n"
        path = tmp_path / "net.txt"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")):
            fast = outcome(load_network, path)
        assert fast[0] == "ok"
        assert fast == outcome(reference, text)

    def test_errors_after_unusual_characters_keep_their_line(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("# caf\u00e9\nnodes 2\ninstant 0\n1 2 1\n1 2 1\n", encoding="utf-8")
        with pytest.raises(NetworkFormatError, match="^line 5: duplicate entry"):
            load_network(path)

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                           "\u2028", "\u2029", "\r", "\r\n"])
    def test_text_splits_lines_as_a_file_does(self, separator, tmp_path):
        # str.splitlines breaks at all of these; a text-mode file read only at \r and \r\n
        path = tmp_path / "net.txt"
        for text in (f"nodes 2\ninstant 0\n1 2 1{separator}1 2 2\n2 x 1\n",
                     f"nodes 2{separator}instant 0\n1 2 1\n2 1 1.5{separator}"):
            path.write_bytes(text.encode("utf-8"))
            assert outcome(loads_network, text) == outcome(load_network, path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"nodes 2\ninstant 0\n1 2 \xc3\n")
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert err.value.line_number == 3
        assert str(err.value) == "line 3: not UTF-8 text: byte 0xc3 at column 5"


def coo_writer(network):
    """The writer the CSR writer replaced: entries sorted from a COO view."""
    def lines(matrix):
        coo = matrix.tocoo()
        return [f"{i + 1} {j + 1} {float(w)!r}"
                for i, j, w in sorted(zip(coo.row, coo.col, coo.data)) if w != 0]
    out = [f"nodes {network.n}"]
    if network.initial_adjacency is not None:
        out += ["initial", *lines(network.initial_adjacency)]
    for t, snapshot in zip(network.instants, network.snapshots):
        out += [f"instant {float(t)!r}", *lines(snapshot)]
    return "\n".join(out) + "\n"


@st.composite
def canonical_networks(draw):
    n = draw(st.integers(1, 8))
    weights = st.one_of(st.floats(0.0, 1e300, allow_nan=False),
                        st.sampled_from([0.0, 1.0 / 3.0, 5e-324, 0.1]))

    def matrix():
        entries = draw(st.dictionaries(st.tuples(st.integers(0, n - 1),
                                                 st.integers(0, n - 1)), weights))
        return netfile._entries_to_csr(entries, n)

    count = draw(st.integers(1, 3))
    instants = sorted(draw(st.sets(st.floats(-1e6, 1e6, allow_nan=False),
                                   min_size=count, max_size=count)))
    initial = matrix() if draw(st.booleans()) else None
    return DiscreteTemporalNetwork(n, instants, tuple(matrix() for _ in instants),
                                   initial_adjacency=initial)


class TestWriter:
    @given(canonical_networks())
    def test_text_matches_the_coo_writer(self, net):
        assert dumps_network(net) == coo_writer(net)
