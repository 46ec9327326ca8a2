"""Edge-event stream parsing and snapshot construction."""

import io
import math
import re
from unittest import mock

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from temporank import (
    ConsistencyError,
    EventParseError,
    InvalidInputError,
    build_snapshots,
    loads_network,
    dumps_network,
    parse_events,
    sample_grid,
    summarize,
)
from temporank import ingest, netfile

DAY = 86400.0


class TestParseEvents:
    def test_basic_line(self):
        parsed = parse_events(["1 2 +1 86400"])
        assert parsed.n == 2
        event = parsed.events[0]
        assert (event.src, event.dst, event.delta, event.timestamp) == (1, 2, 1, DAY)

    def test_comments_and_blanks_skipped(self):
        parsed = parse_events(["% a konect header", "", "  ", "1 2 +1 0"])
        assert len(parsed.events) == 1

    def test_delta_out_of_range_strict(self):
        with pytest.raises(EventParseError, match="delta out of range"):
            parse_events(["1 2 3 86400"])

    def test_delta_out_of_range_lenient_skips_with_warning(self):
        parsed = parse_events(["1 2 3 86400", "1 2 +1 86400"], strict=False)
        assert len(parsed.events) == 1
        assert len(parsed.warnings) == 1
        assert "line 1" in parsed.warnings[0]

    def test_malformed_lines_carry_line_numbers(self):
        with pytest.raises(EventParseError, match="line 2"):
            parse_events(["1 2 +1 0", "1 2 +1"])
        with pytest.raises(EventParseError, match="line 1"):
            parse_events(["a b +1 0"])
        with pytest.raises(EventParseError, match="positive"):
            parse_events(["0 2 +1 0"])
        with pytest.raises(EventParseError, match="timestamp"):
            parse_events(["1 2 +1 -5"])

    def test_ids_compacted_in_ascending_order(self):
        parsed = parse_events(["5 1 +1 0", "2 5 +1 10"])
        assert parsed.n == 3
        assert parsed.id_map == (1, 2, 5)
        assert [(e.src, e.dst) for e in parsed.events] == [(3, 1), (2, 3)]

    def test_sorted_by_timestamp_file_order_on_ties(self):
        parsed = parse_events(["1 2 +1 100", "3 4 +1 50", "1 3 +1 100"])
        assert [(e.src, e.dst, e.timestamp) for e in parsed.events] == [
            (3, 4, 50.0), (1, 2, 100.0), (1, 3, 100.0)]

    def test_t_max_filters_before_compaction(self):
        # the late event's node 99 must not inflate the node count
        parsed = parse_events(["1 2 +1 0", "99 1 +1 5000"], t_max=1000.0)
        assert parsed.n == 2
        assert len(parsed.events) == 1

    def test_accepts_open_file(self, tmp_path):
        path = tmp_path / "out.events"
        path.write_text("% header\n1 2 +1 0\n2 1 -1 50\n")
        with open(path) as handle:
            parsed = parse_events(handle)
        assert len(parsed.events) == 2


class TestSampleGrid:
    def test_fifty_day_grid(self):
        grid = sample_grid(0.0, 50.0 * DAY, 21)
        assert len(grid) == 21
        assert grid[0] == 0.0
        assert grid[-1] == 1000.0 * DAY

    def test_single_point(self):
        assert np.array_equal(sample_grid(0.0, 1.0, 1), np.array([0.0]))

    def test_offset_grid(self):
        assert np.array_equal(sample_grid(5.0, 2.5, 3), np.array([5.0, 7.5, 10.0]))

    def test_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            sample_grid(0.0, 0.0, 3)
        with pytest.raises(InvalidInputError):
            sample_grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("start, step, count", [
        (0.0, math.inf, 3), (0.0, math.nan, 3), (math.nan, 1.0, 3), (-math.inf, 1.0, 2),
        (0.0, 1e308, 3), (1e308, 1e308, 2)])
    def test_non_finite_grid_rejected(self, start, step, count):
        spec = re.escape(f"grid {start!r},{step!r},{count}:")
        with pytest.raises(InvalidInputError, match=spec):
            sample_grid(start, step, count)

    def test_largest_finite_grid_accepted(self):
        assert sample_grid(0.0, 1e308, 2)[-1] == 1e308

    def test_unit_scales_the_points(self):
        grid = sample_grid(0.1, 0.7, 9, DAY)
        assert grid.tobytes() == (sample_grid(0.1, 0.7, 9) * DAY).tobytes()
        with pytest.raises(InvalidInputError,
                           match=re.escape("grid 0.0,1e+304,3: a point overflows in seconds")):
            sample_grid(0.0, 1e304, 3, DAY)


class TestBuildSnapshots:
    def test_event_between_samples_appears_at_the_next_one(self):
        parsed = parse_events(["1 2 +1 43200"])  # half a day in
        net, clamped = build_snapshots(parsed.events, [0.0, DAY], n=2,
                                       instant_scale=DAY)
        assert clamped == 0
        assert net.snapshot_at(1).nnz == 0
        assert net.snapshot_at(2)[0, 1] == 1.0
        assert np.array_equal(net.instants, np.array([0.0, 1.0]))

    def test_add_then_remove_between_samples_is_invisible(self):
        events = parse_events([f"1 2 +1 {10 * DAY:g}", f"1 2 -1 {40 * DAY:g}"]).events
        net, _ = build_snapshots(events, sample_grid(0.0, 50.0 * DAY, 21), n=2)
        assert all(net.snapshot_at(k).nnz == 0 for k in range(1, 22))

    def test_strict_policy_rejects_negative_counts(self):
        events = parse_events(["1 2 -1 10"]).events
        with pytest.raises(ConsistencyError, match="decrement below zero"):
            build_snapshots(events, [100.0], n=2)

    def test_clamp_policy_pins_at_zero_and_counts(self):
        events = parse_events(["1 2 -1 10", "1 2 +1 20"]).events
        net, clamped = build_snapshots(events, [100.0], n=2, policy="clamp")
        assert clamped == 1
        assert net.snapshot_at(1)[0, 1] == 1.0

    def test_duplicate_adds_stack(self):
        events = parse_events(["1 2 +1 0", "1 2 +1 5", "1 2 +1 9"]).events
        net, _ = build_snapshots(events, [10.0], n=2)
        assert net.snapshot_at(1)[0, 1] == 3.0

    def test_initial_adjacency_seeds_the_running_matrix(self):
        initial = np.array([[0.0, 2.0], [0.0, 0.0]])
        events = parse_events(["1 2 -1 5", "2 1 +1 6"]).events
        net, _ = build_snapshots(events, [0.0, 10.0], n=2, initial=initial)
        assert net.snapshot_at(1)[0, 1] == 2.0      # before any event
        assert net.snapshot_at(2)[0, 1] == 1.0      # one removal applied
        assert net.snapshot_at(2)[1, 0] == 1.0
        assert np.array_equal(net.initial_adjacency.toarray(), initial)

    def test_n_inferred_from_initial_when_no_events(self):
        net, _ = build_snapshots([], [0.0], initial=np.eye(3))
        assert net.n == 3
        assert net.snapshot_at(1)[1, 1] == 1.0

    def test_conservation_under_strict_policy(self, rng):
        # total mass equals applied(+1) - applied(-1) + sum(initial)
        n = 6
        initial = np.zeros((n, n))
        initial[0, 1] = 2.0
        counts = {(0, 1): 2}
        lines = []
        t = 0.0
        for _ in range(300):
            t += float(rng.uniform(0.1, 2.0))
            i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1))
            if counts.get((i - 1, j - 1), 0) > 0 and rng.random() < 0.45:
                delta = -1
            else:
                delta = 1
            counts[(i - 1, j - 1)] = counts.get((i - 1, j - 1), 0) + delta
            lines.append(f"{i} {j} {delta:+d} {t!r}")
        events = parse_events(lines).events
        instants = np.linspace(0.0, t, 7)
        net, clamped = build_snapshots(events, instants, n=n, initial=initial)
        assert clamped == 0
        for k, t_k in enumerate(instants, start=1):
            applied = [e for e in events if e.timestamp <= t_k]
            expected = (sum(e.delta for e in applied) + initial.sum())
            assert net.snapshot_at(k).sum() == expected

    def test_bit_identical_reparse(self, rng):
        lines = [f"{rng.integers(1, 9)} {rng.integers(1, 9)} +1 {k}" for k in range(40)]
        nets = []
        for _ in range(2):
            events = parse_events(lines).events
            net, _ = build_snapshots(events, [10.0, 20.0, 39.0])
            nets.append(net)
        for k in range(1, 4):
            a, b = nets[0].snapshot_at(k), nets[1].snapshot_at(k)
            assert np.array_equal(a.toarray(), b.toarray())

    def test_network_file_round_trip(self):
        events = parse_events(["1 2 +1 0", "2 3 +1 100", "1 2 -1 150"]).events
        net, _ = build_snapshots(events, [50.0, 200.0])
        text = dumps_network(net)
        again = loads_network(text)
        assert again.n == net.n
        assert np.array_equal(again.instants, net.instants)
        for k in (1, 2):
            assert np.array_equal(again.snapshot_at(k).toarray(),
                                  net.snapshot_at(k).toarray())

    def test_argument_validation(self):
        events = parse_events(["1 2 +1 0"]).events
        with pytest.raises(InvalidInputError):
            build_snapshots(events, [0.0], policy="ignore")
        with pytest.raises(InvalidInputError):
            build_snapshots(events, [])
        with pytest.raises(InvalidInputError):
            build_snapshots(events, [5.0, 1.0])
        with pytest.raises(InvalidInputError):
            build_snapshots([], [0.0])
        with pytest.raises(InvalidInputError):
            build_snapshots(events, [0.0], instant_scale=0.0)
        with pytest.raises(InvalidInputError, match="outside"):
            build_snapshots(events, [0.0], n=1)
        with pytest.raises(InvalidInputError):
            build_snapshots(events, [0.0], n=2, initial=-np.eye(2))
        with pytest.raises(InvalidInputError, match="fit in int64"):
            build_snapshots([ingest.EdgeEvent(2**70, 1, 1, 0.0)], [0.0], n=2)


class TestSummarize:
    def test_counts_both_interpretations(self):
        parsed = parse_events([
            "1 2 +1 0", "1 2 +1 1", "2 3 +1 2", "1 2 -1 3",
        ])
        summary = summarize(parsed)
        assert summary.n == 3
        assert summary.events == 4
        assert summary.adds == 3
        assert summary.removes == 1
        assert summary.distinct_added == 2
        assert summary.distinct_removed == 1
        assert summary.warnings == 0

    def test_as_dict_and_clamped_warnings(self):
        parsed = parse_events(["1 2 9 0", "1 2 +1 1"], strict=False)
        summary = summarize(parsed, clamped=2)
        data = summary.as_dict()
        assert data["events"] == 1
        assert data["warnings"] == 3


# ------------------------------------------------- against the per-event oracle

_VALID = {
    "id": ["1", "2", "3", "7", "12", "007", "+4", "1_0", "123456789"],
    "delta": ["+1", "-1", "1", "-1", "+1", "+01"],
    "time": ["0", "1", "2.5", "10", "1e1", "-0", "3", "7.25", "0.1", "4_0"],
}
_CORRUPT = {
    "id": ["0", "-3", "x", "1.0", "99999999999999999999", "9223372036854775808"],
    "delta": ["2", "0", "+2", "-0", "a", "1.0"],
    "time": ["-1", "nan", "inf", "1e400", "x", "0x10", "1e"],
}
_ODD_LINES = ["", "   ", "% comment", "  %c 1 2 +1 0", "\t%", "1 2 +1", "1 2 +1 0 5",
              "1 2 +1 0%", "%1 2 +1 0", "1 2 +1 0 \u00e9", "\u0661 2 +1 0", "1 2 +1 0\r",
              "1\x0c2 +1 0"]


@st.composite
def event_lines(draw):
    """Event-stream lines: mostly well formed, some corrupt fields and odd lines."""
    corrupt = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_ODD_LINES)))
            continue
        fields = []
        for kind in ("id", "id", "delta", "time"):
            pool = _VALID[kind] + (_CORRUPT[kind] if corrupt and draw(st.integers(0, 5)) == 0
                                   else [])
            fields.append(draw(st.sampled_from(pool)))
        gap = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + gap.join(fields)
                     + draw(st.sampled_from(["", " "])))
    return lines


def _as_source(lines, shape):
    """The same lines as a list without newlines, a list of newline-ended lines or a file."""
    if shape == "bare":
        return list(lines)
    ended = [line + "\n" for line in lines]
    return ended if shape == "ended" else io.StringIO("".join(ended))


def _outcome(call):
    try:
        return "ok", call()
    except Exception as err:     # noqa: BLE001 - the error itself is compared
        return "error", (type(err), str(err), getattr(err, "line_number", None))


def _csr_parts(matrix):
    return (matrix.shape, matrix.indptr.tolist(), matrix.indices.tolist(),
            matrix.data.dtype, matrix.data.tobytes())


class TestAgainstPerEventOracle:
    @settings(max_examples=300)
    @given(lines=event_lines(), strict=st.booleans(),
           t_max=st.sampled_from([None, 0.0, 3.0, 1e9]),
           shape=st.sampled_from(["bare", "ended", "file"]))
    def test_parse_matches_per_line_parser(self, lines, strict, t_max, shape):
        got = _outcome(lambda: parse_events(_as_source(lines, shape), strict, t_max))
        want = _outcome(lambda: oracles.parse_events_per_line(lines, strict, t_max))
        assert got[0] == want[0], (got, want)
        if got[0] == "error":
            assert got[1] == want[1]
            return
        parsed, (n, events, id_map, warnings) = got[1], want[1]
        assert (parsed.n, tuple(parsed.events), parsed.id_map, parsed.warnings) == (
            n, events, id_map, warnings)
        assert summarize(parsed, 2).as_dict() == oracles.summarize_with_sets(
            n, events, warnings, 2)

    @given(lines=event_lines(), strict=st.booleans(), run=st.integers(1, 4))
    def test_short_tokenizer_runs_match_per_line_parser(self, lines, strict, run):
        # the array parser tokenizes `run` lines at a time; run boundaries must not
        # show, nor send a stream it reads whole to the per-line parser
        outcomes = []
        for size in (netfile._FIELD_LINES, run):
            with mock.patch.object(netfile, "_FIELD_LINES", size), mock.patch.object(
                    ingest, "_parse_lines", wraps=ingest._parse_lines) as per_line:
                got = _outcome(lambda: parse_events(_as_source(lines, "ended"), strict))
            if got[0] == "ok":
                parsed = got[1]
                got = "ok", (parsed.n, tuple(parsed.events), parsed.id_map, parsed.warnings)
            outcomes.append((got, per_line.called))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == _outcome(lambda: oracles.parse_events_per_line(lines, strict,
                                                                                None))

    @settings(max_examples=300)
    @given(data=st.data(), lines=event_lines(), policy=st.sampled_from(["strict", "clamp"]),
           weights=st.sampled_from([None, (0.0, 1.0, 2.0, 3.0), (0.0, 0.3, 1.5, 2.7, 1e-3)]))
    def test_replay_matches_running_dict(self, data, lines, policy, weights):
        try:
            n, events, _, _ = oracles.parse_events_per_line(lines, strict=False)
        except Exception:       # noqa: BLE001 - only parsable streams are replayed
            return
        parsed = parse_events(lines, strict=False)
        n = max(1, n + data.draw(st.integers(-1, 1)))
        instants = sorted(data.draw(st.sets(
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5, 3.0, 8.0, 10.0, 40.0]),
            min_size=1, max_size=4)))
        initial = None
        if weights is not None:
            initial = np.array(data.draw(st.lists(st.sampled_from(weights),
                                                  min_size=n * n, max_size=n * n))).reshape(n, n)
        for given_events in (parsed.events, events):
            _assert_same_replay(given_events, events, instants, n, initial, policy)

    @pytest.mark.parametrize("policy, clamped", [("strict", None), ("clamp", 2)])
    def test_non_integer_initial_is_summed_event_by_event(self, policy, clamped):
        # 0.1 + 1 - 1 is not 0.1 in floating point; the replay must not shortcut it
        lines = ["1 2 +1 1", "1 2 -1 2", "1 2 -1 3", "1 2 -1 4", "1 2 +1 5"]
        initial = np.array([[0.0, 0.1], [0.0, 0.0]])
        assert _assert_same_replay(parse_events(lines).events,
                                   oracles.parse_events_per_line(lines)[1],
                                   [1.5, 2.5, 3.5, 6.0], 2, initial, policy) == clamped

    def test_repeated_initial_coordinates_keep_the_last_nonzero(self):
        initial = sparse.coo_array(([2.0, 5.0, 0.0, 1.0], ([0, 0, 0, 1], [1, 1, 1, 0])),
                                   shape=(2, 2))
        events = parse_events(["1 2 -1 1", "2 1 -1 2"]).events
        _assert_same_replay(events, events, [0.0, 5.0], 2, initial)
        assert build_snapshots(events, [0.0], initial=initial)[0].snapshot_at(1)[0, 1] == 5.0

    @pytest.mark.parametrize("policy", ["strict", "clamp"])
    def test_unsorted_and_nan_timestamps_replay_in_given_order(self, policy):
        # a late event holds back the ones after it; a NaN time never does
        events = [ingest.EdgeEvent(1, 2, 1, 0.0), ingest.EdgeEvent(2, 1, 1, 9.0),
                  ingest.EdgeEvent(1, 2, -1, 1.0), ingest.EdgeEvent(2, 3, 1, math.nan),
                  ingest.EdgeEvent(1, 2, -1, 2.0), ingest.EdgeEvent(3, 1, 1, math.nan)]
        _assert_same_replay(events, events, [0.5, 5.0, 10.0], 3, policy=policy)


def _assert_same_replay(events, oracle_events, instants, n, initial=None, policy="strict"):
    """build_snapshots raises the running dict's error, or gives its snapshots bit for bit.

    Returns the clamped count, or None after an error.
    """
    want = _outcome(lambda: oracles.replay_events_per_event(
        oracle_events, instants, n, initial, policy))
    got = _outcome(lambda: build_snapshots(events, instants, n=n, initial=initial,
                                           policy=policy))
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return None
    (network, clamped), (snapshots, want_clamped) = got[1], want[1]
    assert clamped == want_clamped
    assert [_csr_parts(m) for m in network.snapshots] == [_csr_parts(m) for m in snapshots]
    return clamped


class TestArrayParser:
    """Ordinary streams never need the per-line parser."""

    @pytest.fixture
    def no_fallback(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-line parser used")
        monkeypatch.setattr(ingest, "_parse_lines", refuse)

    def test_comments_tabs_and_blanks(self, no_fallback, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("% header\n\n  % note\n5\t1 +1 0\n 2 5  -1\t10 \n\n")
        with open(path) as handle:
            parsed = parse_events(handle)
        assert parsed.id_map == (1, 2, 5)
        assert tuple(parsed.events) == (ingest.EdgeEvent(3, 1, 1, 0.0),
                                        ingest.EdgeEvent(2, 3, -1, 10.0))

    def test_lenient_warnings(self, no_fallback):
        parsed = parse_events(["1 2 +1 0", "% x", "1 2 +3 1", "1 2 0 2"], strict=False)
        assert parsed.warnings == ("line 3: delta 3 out of range, skipped",
                                   "line 4: delta 0 out of range, skipped")
        assert len(parsed.events) == 1

    def test_an_element_holding_two_lines_is_one_line(self):
        with pytest.raises(EventParseError, match="line 2: expected .* got 8 fields"):
            parse_events(["% two events in one element:\n", "1 2 +1 0\n2 3 +1 1\n"])

    def test_events_view(self):
        events = parse_events(["1 2 +1 5", "2 1 -1 3", "1 2 +1 9"]).events
        assert len(events) == 3
        assert events[-1] == ingest.EdgeEvent(1, 2, 1, 9.0)
        assert tuple(events[1:]) == tuple(events)[1:]
        with pytest.raises(IndexError):
            events[3]


class TestSampleInstantsFinite:
    @pytest.mark.parametrize("instants", [[math.nan], [0.0, math.inf], [-math.inf, 0.0]])
    def test_non_finite_instants_rejected(self, instants):
        events = parse_events(["1 2 +1 0"]).events
        with pytest.raises(InvalidInputError, match="sample_instants must be finite"):
            build_snapshots(events, instants)
