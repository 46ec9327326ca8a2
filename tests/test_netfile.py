"""The plain-text network description format."""

import io
import math
import pathlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

import oracles
from temporank import (
    ContinuousTemporalNetwork,
    DiscreteTemporalNetwork,
    NetworkFormatError,
    dumps_network,
    load_network,
    loads_network,
    save_network,
    synthetic_five_node,
    truncate,
)
from temporank import graph, netfile
from temporank.timefuncs import TimeFunction
from test_graph import assert_same_csr, zero_bearing_networks

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


def by_path_and_handles(path):
    """outcome of load_network by path, by a text handle and by a binary handle."""
    with open(path, encoding="utf-8") as text, open(path, "rb") as binary:
        return [outcome(load_network, source) for source in (path, text, binary)]


class TestOpenFiles:
    """An open file, text or binary, is read once and parsed as its path is."""

    @pytest.mark.parametrize("raw", [
        DISCRETE.encode(), CONTINUOUS.encode(), DISCRETE.replace("\n", "\r\n").encode(),
        "# caf\u00e9\nnodes 2\ninstant 0\n1 2 1\n".encode("utf-8"),
    ])
    def test_handles_load_as_the_path(self, raw, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(raw)
        results = by_path_and_handles(path)
        assert results[0][0] == "ok"
        assert results == [results[0]] * 3

    @pytest.mark.parametrize("raw, line", [
        (b"nodes 2\ninstant 0\n1 2 1\n1 2 x\n", 4),
        (b"nodes 2\ninstant 0\n1 2 1\n1 2 1\n", 4),
        (b"# caf\xc3\xa9\nnodes 2\ninstant 0\n3 1 1\n", 4),
    ])
    def test_a_malformed_file_fails_on_the_same_line(self, raw, line, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(raw)
        results = by_path_and_handles(path)
        assert results[0][0] == "NetworkFormatError" and results[0][2] == line
        assert results == [results[0]] * 3

    def test_non_utf8_bytes_by_handle_as_by_path(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"nodes 2\ninstant 0\n1 2 \xc3\n")
        with open(path, "rb") as binary:
            assert outcome(load_network, binary) == outcome(load_network, path) == (
                "NetworkFormatError", "line 3: not UTF-8 text: byte 0xc3 at column 5", 3)

    def test_a_handle_takes_the_block_parser(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text(DISCRETE)
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")), \
                open(path) as text, open(path, "rb") as binary:
            assert outcome(load_network, text) == outcome(load_network, binary) \
                == outcome(loads_network, DISCRETE)


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

    @pytest.mark.parametrize("expression", ["+".join(["t"] * 1000), "+".join(["t"] * 3000),
                                            "-" * 100000 + "t"], ids=["sum-1000", "sum-3000",
                                                                      "minus-100000"])
    def test_expression_nested_too_deeply_is_a_line_numbered_error(self, expression):
        text = f"nodes 2\ninterval 0 1\nedge 1 2 {expression}\n"
        for parse in (loads_network, lambda text: load_network(text.splitlines())):
            with pytest.raises(NetworkFormatError) as caught:
                parse(text)
            assert str(caught.value) == (
                f"line 3: bad edge expression: expression of {len(expression)} characters "
                "is nested too deeply to parse")
            assert caught.value.line_number == 3

    def test_discrete_file_checked_once(self):
        # the constructor's check is the file route's; its text is kept
        text = "nodes 2\ninstant 1\n1 2 1\ninstant 0\n1 2 1\n"
        with mock.patch.object(graph, "_validate_discrete",
                               wraps=graph._validate_discrete) as check:
            with pytest.raises(NetworkFormatError) as caught:
                loads_network(text)
            assert str(caught.value) == "instants not strictly increasing"
            loads_network("nodes 2\ninstant 0\n1 2 1\ninstant 1\n1 2 1\n")
        assert check.call_count == 2

    def test_continuous_file_checked_once(self):
        # as for a discrete file: the constructor checks, and the file keeps its text
        text = "nodes 2\ninterval 0 1\nedge 1 2 t-2\n"
        with mock.patch.object(graph, "_validate_continuous",
                               wraps=graph._validate_continuous) as check:
            with pytest.raises(NetworkFormatError) as caught:
                loads_network(text)
            assert str(caught.value) == "edge (1, 2): negative value on sample grid"
            loads_network("nodes 2\ninterval 0 1\nedge 1 2 t\n")
        assert check.call_count == 2

    def test_errors_carry_line_numbers(self):
        with pytest.raises(NetworkFormatError, match="line 3"):
            loads_network("nodes 2\ninterval 0 1\nedge 1 5 t\n")

    def test_opaque_callable_cannot_be_written(self, tmp_path):
        net = ContinuousTemporalNetwork(
            n=2, interval=(0.0, 1.0),
            edges={(0, 1): TimeFunction.from_callable(lambda t: t)})
        with pytest.raises(NetworkFormatError, match="opaque callable"):
            dumps_network(net)
        with pytest.raises(NetworkFormatError, match="opaque callable"):
            save_network(net, tmp_path / "net.txt")
        assert not (tmp_path / "net.txt").exists()

    # the reader refuses `nodes 0` and a file of no blocks, so the writer writes neither
    @pytest.mark.parametrize("net, message", [
        (DiscreteTemporalNetwork(2, [], ()),
         "a network of no instants cannot be written: the format needs an `instant` block"),
        (DiscreteTemporalNetwork(0, [0.0], (np.zeros((0, 0)),)),
         "a network of no nodes cannot be written: the format needs a positive node count"),
        (ContinuousTemporalNetwork(0, (0.0, 1.0)),
         "a network of no nodes cannot be written: the format needs a positive node count"),
    ], ids=["no-instants", "no-nodes-discrete", "no-nodes-continuous"])
    def test_network_the_reader_refuses_cannot_be_written(self, tmp_path, net, message):
        with pytest.raises(NetworkFormatError) as caught:
            dumps_network(net)
        assert str(caught.value) == message
        with pytest.raises(NetworkFormatError):
            save_network(net, tmp_path / "net.txt")
        assert not (tmp_path / "net.txt").exists()

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
        assert snap.nnz == 3                    # the caller's matrix is untouched
        assert net.snapshot_at(1).nnz == 2      # the network holds the sum

    def test_truncated_network_reads_out_as_it_loads_back(self):
        # edge 1 2 t vanishes at t0: the empty first snapshot reads out with int64
        # indices, as every other matrix of a record does, whatever built the network
        truncated = truncate(loads_network("nodes 2\ninterval 0 1\nedge 1 2 t\n"), 3)
        assert truncated.snapshot_at(1).nnz == 0
        text = dumps_network(truncated)
        for loaded in (loads_network(text), load_network(text.splitlines())):
            assert len(loaded.snapshots) == 3
            for got, expected in zip(loaded.snapshots, truncated.snapshots):
                assert_same_csr(got, expected)

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
    data, indices, indptr, starts = net._entries      # the record they are read out of
    return ("discrete", net.n, net.instants.dtype.str, net.instants.tobytes(),
            net.initial_adjacency is None,
            [(m.shape, *((a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)))
             for m in matrices],
            [(a.dtype.str, a.shape, a.tobytes()) for a in (data, indices, indptr)], starts)


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


class TestLoadedMatricesAreTheCsrOracle:
    @given(zero_bearing_networks())
    def test_both_parsers_read_out_the_oracle_csrs(self, net):
        # the file holds the nonzero entries; each block reads out as the CSR matrix
        # built from them alone, an empty one with int64 indices as every other
        text = dumps_network(net)
        given = list(net.snapshots) + [net.initial_adjacency] * (net.initial_adjacency
                                                                 is not None)
        for loaded in (loads_network(text), load_network(text.splitlines())):
            got = list(loaded.snapshots) + [loaded.initial_adjacency] * (
                loaded.initial_adjacency is not None)
            assert len(got) == len(given)
            for matrix, original in zip(got, given):
                assert_same_csr(matrix, oracles.nonzeros_to_csr(original))
            assert dumps_network(loaded) == text


class TestBlockParser:
    @given(case=discrete_files(), trailing=st.booleans())
    def test_valid_files_load_bit_identically_without_fallback(self, case, trailing):
        text = joined(case[0], trailing)
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")):
            fast = outcome(loads_network, text)
        assert fast[0] == "ok", fast
        assert fast == outcome(reference, text)

    @given(case=discrete_files(), ended=st.booleans(), data=st.data())
    def test_lines_load_as_their_joined_text(self, case, ended, data):
        lines = case[0]
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(lines)))
            lines = lines[:at] + [data.draw(st.sampled_from(["1 2", "1 x 1.0", "1 1 -1"]))] \
                + lines[at:]
        given_lines = [line + "\n" for line in lines] if ended else lines
        assert outcome(load_network, iter(given_lines)) == outcome(loads_network, joined(lines))

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

    @pytest.mark.parametrize("text", [
        "nodes 2\ninstant 0\n1 2 1\n\ninstant 1\n2 1 1\n",         # a blank line first
        "nodes 2\ninstant 0\n1 2 1\n \t\ninstant 1\n2 1 1\n",      # a whitespace-only one
        "nodes 2\ninstant 0\n1 2 1\n  instant 1\n2 1 1\n\tinitial\n1 1 1\n",  # indented
        "nodes 12\ninstant 0\n+1 2 1\n01 1 1\n+12 012 1\n3 3 1\n",    # +1 and 01 first
        "nodes 2\rinstant 0\r1 2 1\r\rinstant 1\r2 1 1\r",             # CR
        "nodes 2\r\ninstant 0\r\n1 2 1\r\n\r\n instant 1\r\n2 1 1\r\n",  # CRLF
    ], ids=["blank", "whitespace", "indented", "signed-and-padded", "cr", "crlf"])
    def test_keyword_lines_are_found_after_any_line(self, text):
        # the scan skips a line at its first digit only; any other line is tried
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")):
            fast = outcome(loads_network, text)
        assert fast[0] == "ok"
        assert fast == outcome(reference, text)

    def test_a_bad_keyword_line_after_many_triples_keeps_its_line(self):
        # the line number is counted only when a keyword line fails
        triples = "".join(f"{k // 40 + 1} {k % 40 + 1} {k}.5\n" for k in range(1600))
        text = f"nodes 40\ninstant 0\n{triples}\n# note\n  instant x\n"
        want = ("NetworkFormatError", "line 1605: instant 'x' is not a number", 1605)
        with mock.patch.object(netfile, "_parse", side_effect=AssertionError("fell back")):
            assert outcome(loads_network, text) == want
        assert outcome(reference, text) == want

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

    @pytest.mark.parametrize("raw", [
        b"nodes 2\rinstant 0\r1 2 1\r2 1 x\r",                     # \r
        b"nodes 2\r\ninstant 0\r\n1 2 1\r\n1 2 2\r\n",               # \r\n
        b"nodes 2\r\ninstant 0\n1 2 1\r\r\n2 1 1.5\r",              # all three
        b"\xef\xbb\xbfnodes 2\ninstant 0\n1 2 1\n",                  # a BOM
        b"# caf\xc3\xa9\nnodes 2\ninstant 0\n1 2 1\n2 1 1\n",         # a non-ASCII comment
        b"nodes 2\r\ninstant 0\r\n1 2 \xc3\r\n",                    # invalid UTF-8
        b"nodes 2\rinstant 0\r1 2 1\r\xff\r",
        b"# \xe2\x82\nnodes 2\n",
        b"nodes 2\ninstant 0\n1 2 1\n",                            # a keyword first
        b"\t nodes 2\ninstant 0\n1 2 1",
        b"instant 0\nnodes 2\n1 2 1\n",
        b"# first\nnodes 2\ninstant 0\n1 2 1\n",                   # a comment first
        b"#\nnodes 2\ninitial\n2 2 1\ninstant 0\n",
        b"1 2 1\nnodes 2\ninstant 0\n",                            # a triple first
        b"nodesx 2\ninstant 0\n",
    ])
    def test_raw_files_load_as_their_text(self, raw, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(raw)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            want = oracles.not_utf8(raw, NetworkFormatError)
            assert outcome(load_network, path) == (
                "NetworkFormatError", str(want), want.line_number)
        else:
            assert outcome(load_network, path) == outcome(loads_network, text) \
                == outcome(reference, text)

    def test_any_path_like_is_a_path(self, tmp_path):
        path = pathlib.PurePosixPath(str(tmp_path / "net.txt"))
        save_network(loads_network(DISCRETE), path)
        assert fingerprint(load_network(path)) == fingerprint(loads_network(DISCRETE))

    @pytest.mark.parametrize("text, line", [
        ("nodes 100000000000000000000\ninstant 0\n", 1),
        ("# caf\u00e9\nnodes 100000000000000000000\ninstant 0\n1 1 1\n", 2),
        ("nodes 100000000000000000000\ninterval 0 1\nedge 1 2 t\n", 1),
    ])
    def test_node_count_beyond_the_block_limit(self, text, line):
        want = ("NetworkFormatError",
                f"line {line}: node count must be below 2**31, got 100000000000000000000", line)
        assert outcome(loads_network, text) == outcome(reference, text) == want

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_bytes(b"nodes 2\ninstant 0\n1 2 \xc3\n")
        with pytest.raises(NetworkFormatError) as err:
            load_network(path)
        assert err.value.line_number == 3
        assert str(err.value) == "line 3: not UTF-8 text: byte 0xc3 at column 5"


# ---------------------------------------------------------------------------
# numpy's text reader against Python's int and float, on the installed numpy

SPECIAL_WORDS = st.sampled_from(["inf", "nan", "infinity"]).flatmap(
    lambda word: st.tuples(st.sampled_from(["", "+", "-"]),
                           st.lists(st.booleans(), min_size=len(word), max_size=len(word))).map(
        lambda parts: parts[0] + "".join(c.upper() if up else c
                                         for c, up in zip(word, parts[1]))))
ANY_TOKENS = st.text(alphabet="0123456789+-._eEx", min_size=1, max_size=8)
INT_TOKENS = st.one_of(ANY_TOKENS, st.from_regex(r"\A[+-]?[0-9][0-9_]{0,5}\Z"),
                       st.integers(-2**70, 2**70).map(str), SPECIAL_WORDS)
FLOAT_TOKENS = st.one_of(
    ANY_TOKENS, SPECIAL_WORDS, st.floats().map(repr),
    st.from_regex(r"\A[+-]?[0-9_]{0,4}\.?[0-9_]{0,3}([eE][+-]?[0-9_]{1,3})?\Z"))


def python_reads(token, kind):
    try:
        return int(token) if kind == "i8" else float(token)
    except ValueError:
        return None


class TestNumpyReader:
    """The fast paths rely on numpy's number grammar; a numpy that reads
    differently must fail here, not silently change how files are read."""

    @given(rows=st.lists(st.tuples(INT_TOKENS, FLOAT_TOKENS), min_size=1, max_size=4),
           sep=SEP)
    def test_reads_tokens_as_python_does_or_is_not_sure(self, rows, sep):
        for part in [[row] for row in rows] + [rows]:
            body = "".join(f"{i}{sep}{w}\n" for i, w in part).encode("ascii")
            try:
                ints, floats = netfile._fields(body, "i8,f8")
            except netfile._NotSure:
                continue
            assert ints.tolist() == [python_reads(i, "i8") for i, _ in part]
            want = [python_reads(w, "f8") for _, w in part]
            assert None not in want
            assert floats.tobytes() == np.array(want, dtype=np.float64).tobytes()

    def test_a_warning_from_the_reader_is_not_sure(self):
        loadtxt = np.loadtxt

        def warns(*args, **kwargs):
            warnings.warn("conversion deprecated", DeprecationWarning)
            return loadtxt(*args, **kwargs)

        # outside the reader the warning is ignored; the reader's own rule must catch it
        with mock.patch.object(netfile.np, "loadtxt", warns), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(netfile._NotSure):
                netfile._fields(b"1 2 1.0\n", "i8,i8,f8")
        assert [c.tolist() for c in netfile._fields(b"1 2 1.0\n", "i8,i8,f8")] == [
            [1], [2], [1.0]]


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
        return oracles.entries_to_csr(entries, n)

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

    @given(canonical_networks())
    def test_saved_blocks_join_to_the_dumped_text(self, net):
        buffer = io.StringIO()
        save_network(net, buffer)
        assert buffer.getvalue() == dumps_network(net)


@st.composite
def stored_networks(draw):
    """Discrete networks whose CSR snapshots store float or integer weights, repeated
    values and explicit zeros, in canonical order or with duplicate, unsorted entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 12))
    pool = draw(st.sampled_from([
        [0.0, 1.0, 2.0, 3.0],
        [0.0, 0.1, 1.0 / 3.0, 2.5, 1e300, 5e-324],
        rng.uniform(0.0, 10.0, size=40)]))
    integer = draw(st.booleans()) and pool[-1] == 3.0

    def matrix():
        size = int(rng.integers(0, 2 * n * n + 1))
        rows, cols = rng.integers(0, n, size=size), rng.integers(0, n, size=size)
        data = rng.choice(pool, size=size)
        if integer:
            data = data.astype(np.int64)
        built = sparse.csr_array((data, (rows, cols)), shape=(n, n))
        if draw(st.booleans()):       # stored as given: duplicates, unsorted, zeros kept
            order = np.argsort(rows, kind="stable")
            indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
            built = sparse.csr_array((data[order], cols[order], indptr), shape=(n, n))
        return built

    count = draw(st.integers(1, 3))
    initial = matrix() if draw(st.booleans()) else None
    return DiscreteTemporalNetwork(n, np.arange(count, dtype=float) * 0.5,
                                   tuple(matrix() for _ in range(count)),
                                   initial_adjacency=initial)


class TestTableWriter:
    @given(stored_networks())
    def test_text_matches_the_per_entry_writer(self, net):
        assert dumps_network(net) == oracles.dumps_discrete_network(net)
