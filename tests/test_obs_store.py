"""The one stored trace format: round-trips, reference parity, index queries.

The contract under test is the one the trace pipeline stands on:

* every consumer (``read_events``, ``TimelineRecorder.from_trace``,
  ``build_spans``, ``repro-udt trace query``) sees exactly the events
  the bus handed its subscribers, and every kind/src/time query answers
  what a plain Python filter over those events answers;
* an ``.rtrc`` written live off the bus is byte-identical to one written
  by replaying the same subscriber calls (deterministic blocks +
  fixed-level zlib), and ``trace query`` prints them as JSON lines;
* kind/src/time-range queries answer from the footer index, *skipping*
  blocks — asserted via the reader's block counters;
* truncated or damaged containers degrade to the complete-block prefix
  with a warning, and nothing but ``RtrcFormatError`` ever comes out of
  the codec;
* timestamps live in a binary float64 column, and whatever else a ``t``
  can be round-trips all the same;
* ``repro.obs.export`` is the only module that tests a trace suffix, and
  a path or file that is not ``.rtrc`` is a one-line usage error.

The shared fixture records one packet-tier fig04 run to ``.rtrc`` and,
in the same run, keeps the bus's own subscriber calls in a list: the
reference every read is checked against.
"""

import errno
import json
import math
import re
import struct
import sys
import threading
import warnings
import zlib
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import repro
from repro.experiments import get_experiment
from repro.obs.export import TruncatedTraceWarning, read_events, trace_session
from repro.obs.spans import SpanBuilder, build_spans
from repro.obs.store import (
    DEFAULT_BLOCK_EVENTS,
    MAGIC,
    STORE_VERSION,
    TRAILER_MAGIC,
    RtrcFormatError,
    RtrcReader,
    RtrcWriter,
    dump_record,
)
from repro.obs.timeline import TIMELINE_KINDS, TimelineRecorder
from tests._collect import every_run

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

RUN_KW = dict(n_flows=2, rate_bps=20e6, rtts=(0.01,), duration=3.0)
META = dict(packet_detail=True, generator="test")


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One packet-tier fig04 run recorded to ``.rtrc``, and the subscriber
    calls of the same run kept in memory as flat records."""
    d = tmp_path_factory.mktemp("traces")
    rtrc = d / "t.rtrc"
    calls = []
    with trace_session(str(rtrc), packets=True, generator="test"), \
         every_run(lambda kind, t, src, fields: calls.append((kind, t, src, dict(fields)))):
        get_experiment("fig04").runner(**RUN_KW)
    events = [{"t": t, "kind": kind, "src": src, **fields} for kind, t, src, fields in calls]
    meta = {"kind": "trace.meta", "schema": 1, **META}
    return SimpleNamespace(dir=d, rtrc=rtrc, calls=calls, events=events, meta=meta)


def _write(path, calls, block_events=DEFAULT_BLOCK_EVENTS):
    """Replay subscriber calls into a fresh writer, as ``trace_session`` would."""
    w = RtrcWriter(path, block_events=block_events)
    w.write_meta(**META)
    for call in calls:
        w.record(*call)
    w.close()
    return path


def _filter(events, kinds=None, srcs=None, t0=None, t1=None):
    """A query, answered by a plain filter over the reference events."""
    return [
        rec for rec in events
        if (kinds is None or rec["kind"] in kinds)
        and (srcs is None or rec["src"] in srcs)
        and (t0 is None or rec["t"] >= t0)
        and (t1 is None or rec["t"] <= t1)
    ]


def _json_lines(events):
    return "".join(dump_record(rec) + "\n" for rec in events)


# -- byte-level round trips -------------------------------------------------


class TestRoundTrip:
    def test_rtrc_is_much_smaller_than_jsonl(self, traced_run):
        """The container against the JSON lines ``trace query`` prints."""
        text = len(_json_lines(traced_run.events).encode())
        ratio = traced_run.rtrc.stat().st_size / text
        assert ratio <= 0.25, f".rtrc is {ratio:.1%} of the JSON-lines size"

    def test_live_rtrc_equals_converted_rtrc(self, traced_run, tmp_path):
        """Bus -> .rtrc and the same calls replayed -> .rtrc give identical bytes."""
        assert len(traced_run.calls) > 1000
        replayed = _write(tmp_path / "replayed.rtrc", traced_run.calls)
        assert replayed.read_bytes() == traced_run.rtrc.read_bytes()

    def test_rtrc_to_jsonl_is_byte_exact(self, traced_run, capsys):
        """``trace query`` prints every event as its canonical JSON line."""
        from repro.cli import main

        assert main(["trace", "query", str(traced_run.rtrc)]) == 0
        out, err = capsys.readouterr()
        assert out == _json_lines(traced_run.events)
        assert f"[query] {len(traced_run.events)} matching" in err


# -- timestamps: a float64 column, and everything a double cannot hold ------

_TIMES = st.one_of(
    st.floats(),  # nan, the infinities, -0.0 and subnormals included
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                     math.inf, -math.inf, math.nan, 0.1 + 0.2]),
    st.integers(),  # Simulator.run(until=5) leaves the clock an int
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


def _plain_number(t):
    """A ``t`` the index orders (nan has no order)."""
    return isinstance(t, (int, float)) and t == t


class TestTimestampExactness:
    @settings(max_examples=60, deadline=None)
    @given(times=st.lists(_TIMES, max_size=12))
    @example(times=[-0.0, 5e-324, 1e308, math.inf, math.nan, 5, True, "5", None])
    @example(times=[2.5, 2**70, False, -math.inf])  # every t a plain number
    def test_any_t_round_trips_and_indexes(self, times, tmp_path_factory):
        d = tmp_path_factory.mktemp("t")
        calls = [("k%d" % (i % 2), t, "s", {"i": i}) for i, t in enumerate(times)]
        want = [{"t": t, "kind": k, "src": s, **f} for k, t, s, f in calls]
        for block_events in (1, 3, 4096):
            path = _write(d / f"b{block_events}.rtrc", calls, block_events)
            got = list(read_events(path))
            # as JSON lines: nan == nan, and key order and int/float/bool kept
            assert _json_lines(got) == _json_lines(want), block_events
            if times and all(map(_plain_number, times)):
                with RtrcReader(path) as reader:
                    assert reader.time_range() == (min(times), max(times))

    def test_int_clock_event_survives_a_live_write(self, tmp_path, capsys):
        """``run(until=5)`` then ``close()``: ``conn.closed`` carries ``t=5``."""
        from repro.cli import main
        from repro.obs.bus import CONN_CLOSED, EventBus

        bus = EventBus()
        path = tmp_path / "live.rtrc"
        with trace_session(str(path), bus=bus):
            bus.emit("cc.sample", 4.75, "f0-snd", cwnd=16.0)
            bus.emit(CONN_CLOSED, 5, "f0-snd")
        assert main(["trace", "query", str(path), "--kind", CONN_CLOSED]) == 0
        assert capsys.readouterr().out == '{"t":5,"kind":"conn.closed","src":"f0-snd"}\n'
        with RtrcReader(path) as reader:
            assert reader.time_range() == (4.75, 5)
            assert [e["kind"] for e in reader.iter_events(t0=5)] == [CONN_CLOSED]


# -- consumers against the reference ----------------------------------------


class TestConsumerEquivalence:
    def test_read_events_yields_identical_dicts(self, traced_run):
        got = list(read_events(str(traced_run.rtrc), include_meta=True))
        assert len(got) > 10_000
        assert got == [traced_run.meta] + traced_run.events

    def test_timeline_rebuild_matches_live(self, traced_run):
        rebuilt = TimelineRecorder.from_trace(str(traced_run.rtrc))
        live = TimelineRecorder()
        for kind, t, src, fields in traced_run.calls:
            if kind in TIMELINE_KINDS:
                live.record(kind, t, src, fields)
        assert rebuilt.connections() == live.connections()
        for conn in live.connections():
            assert rebuilt.series(conn) == live.series(conn)
        assert rebuilt.marks == live.marks

    def test_spanset_identical_across_formats(self, traced_run):
        """The spans of the file and of the in-memory events agree."""
        sr = build_spans(str(traced_run.rtrc))
        sl = SpanBuilder().feed_many([traced_run.meta] + traced_run.events).build()
        assert sr.events_consumed == sl.events_consumed > 10_000
        assert sr.meta == sl.meta
        assert sr.connections() == sl.connections()
        for conn in sr.connections():
            assert sr.forensics(conn) == sl.forensics(conn)


# -- index-based querying ---------------------------------------------------


@pytest.fixture(scope="module")
def indexed(traced_run, tmp_path_factory):
    """The run's events written in small blocks, so index skipping is visible."""
    path = tmp_path_factory.mktemp("indexed") / "small-blocks.rtrc"
    return _write(path, traced_run.calls, block_events=512)


class TestIndexQueries:
    def test_rare_kind_query_skips_blocks(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            counts = reader.kind_counts()
            # the rarest kind lives in few blocks; the index must skip
            # the rest rather than inflate them
            kind = min(counts, key=counts.get)
            got = list(reader.iter_events(kinds=[kind]))
            assert reader.blocks_read < reader.blocks_total
            assert reader.blocks_skipped > 0
            assert reader.blocks_read + reader.blocks_skipped == reader.blocks_total
        assert got == _filter(traced_run.events, kinds=[kind])

    def test_time_range_query_matches_scan_and_skips(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            lo, hi = reader.time_range()
            t0 = lo + (hi - lo) * 0.4
            t1 = lo + (hi - lo) * 0.45
            got = list(reader.iter_events(t0=t0, t1=t1))
            assert reader.blocks_skipped > 0
        assert got == _filter(traced_run.events, t0=t0, t1=t1)

    def test_src_query_matches_scan(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            src = reader.srcs()[0]
            got = list(reader.iter_events(srcs=[src]))
        assert got == _filter(traced_run.events, srcs={src})
        assert got, "src filter matched nothing"

    def test_stats_come_from_index_alone(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            stats = reader.stats()
            assert reader.blocks_read == 0  # nothing decompressed
        expected = Counter(rec["kind"] for rec in traced_run.events)
        assert stats["kinds"] == dict(expected)
        assert stats["events"] == len(traced_run.events)
        assert not stats["truncated"]

    def test_read_events_stats_carry_block_counters(self, indexed):
        with RtrcReader(indexed) as reader:
            counts = reader.kind_counts()
            kind = min(counts, key=counts.get)
            n = sum(1 for _ in reader.iter_events(kinds=[kind]))
            stats = reader.scan_counters()
            assert reader.truncated is False
        assert n == counts[kind]
        assert stats["blocks_read"] >= 1
        assert stats["blocks_skipped"] > 0


class TestReaderParity:
    """The reader answers every query as a filter over the reference does."""

    def test_every_query_yields_identical_records(self, traced_run, indexed):
        """The kinds / srcs / t0 / t1 combinations of TestIndexQueries."""
        events = traced_run.events
        with RtrcReader(indexed) as index:
            assert index.meta == traced_run.meta
            stats = index.stats()
            rare = min(stats["kinds"], key=stats["kinds"].get)
            lo, hi = stats["t0"], stats["t1"]
            window = {"t0": lo + (hi - lo) * 0.4, "t1": lo + (hi - lo) * 0.45}
            for query in (
                {},
                {"kinds": [rare]},
                window,
                {"srcs": [stats["srcs"][0]]},
                dict(window, kinds=["pkt.snd"], srcs=["f0-snd"]),
            ):
                n = 0
                for a, b in zip_longest(_filter(events, **query), index.iter_events(**query)):
                    assert a == b, (query, n)
                    n += 1
                assert n > 0, query
            assert next(index.iter_events(include_meta=True)) == traced_run.meta

    def test_shared_stats_keys_agree(self, traced_run):
        """``stats()`` from the index says what the reference events say."""
        events = traced_run.events
        with RtrcReader(traced_run.rtrc) as index:
            stats = index.stats()
            assert index.events_total == len(events) and not index.truncated
        assert set(stats) == {"path", "events", "blocks", "t0", "t1",
                              "kinds", "srcs", "truncated"}
        assert stats["path"] == str(traced_run.rtrc)
        assert stats["events"] == len(events)
        assert stats["blocks"] == -(-len(events) // DEFAULT_BLOCK_EVENTS)
        assert (stats["t0"], stats["t1"]) == (min(r["t"] for r in events),
                                              max(r["t"] for r in events))
        assert stats["kinds"] == dict(sorted(Counter(r["kind"] for r in events).items()))
        assert stats["srcs"] == sorted({r["src"] for r in events})

    def test_event_streams_start_after_the_meta_record(self, traced_run):
        with RtrcReader(traced_run.rtrc) as index, index.event_stream() as f:
            assert f.read(1) == b"B"


def test_only_export_tests_a_trace_suffix():
    """The on-disk format is one module's decision (DESIGN.md, "The
    evidence pipeline"): no other module tests a trace suffix, and the
    .rtrc codec never imports the seam above it."""
    suffix_test = re.compile(
        r"""is_rtrc_path|(endswith\(|suffix(es)?\s*(==|!=|in)\s*)\(?["']\.?(rtrc|jsonl|gz)"""
    )
    root = Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{n}"
        for path in sorted(root.rglob("*.py"))
        if path.relative_to(root) != Path("obs/export.py")
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if suffix_test.search(line)
    ]
    assert hits == []
    assert "obs.export" not in (root / "obs" / "store.py").read_text()


# -- truncation recovery ----------------------------------------------------


def _tiny_rtrc(path, n=1000, block_events=100):
    w = RtrcWriter(path, block_events=block_events)
    w.write_meta(generator="test")
    for i in range(n):
        w.record("cc.sample", i * 0.001, "s", {"seq": i})
    w.close()
    return path


class TestTruncation:
    def test_missing_trailer_with_intact_footer_recovers_fully(self, tmp_path):
        p = _tiny_rtrc(tmp_path / "t.rtrc")
        data = p.read_bytes()
        p.write_bytes(data[:-16])  # drop the u64 offset + trailer magic
        with RtrcReader(p) as reader:
            assert not reader.truncated  # footer found by frame scan
            assert reader.events_total == 1000

    def test_mid_block_truncation_yields_complete_prefix(self, tmp_path):
        p = _tiny_rtrc(tmp_path / "t.rtrc")
        p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])
        with pytest.warns(TruncatedTraceWarning, match="truncated"):
            events = list(read_events(p))
        assert events
        assert len(events) % 100 == 0  # whole blocks only
        assert len(events) < 1000
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_strict_raises_on_truncation(self, tmp_path):
        p = _tiny_rtrc(tmp_path / "t.rtrc")
        p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])
        with pytest.raises(RtrcFormatError):
            list(read_events(p, strict=True))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.rtrc"
        p.write_bytes(b"not a container at all")
        with pytest.raises(RtrcFormatError):
            RtrcReader(p)

    def test_version_1_container_is_refused_by_name(self, tmp_path):
        """No second decoder: an old file is told apart by its magic."""
        assert STORE_VERSION == 3 and MAGIC[4] == TRAILER_MAGIC[-1] == 3
        p = tmp_path / "old.rtrc"
        for old in (1, 2):
            v = bytes([old])
            p.write_bytes(b"RTRC" + v + b"\n" + b"M\x00\x00\x00\x00" + b"RTRCIDX" + v)
            with pytest.raises(
                RtrcFormatError, match=rf"version {old}\b.* reads 3\b.*re-record"
            ):
                RtrcReader(p)

    def test_every_prefix_and_byte_flip_fails_one_way(self, tmp_path):
        """Damage anywhere: a prefix of the events, or ``RtrcFormatError``.

        Never ``zlib.error`` / ``JSONDecodeError`` / ``struct.error`` /
        ``KeyError``, never a wrong event, never a short list without the
        warning, and never a short list at all under ``strict``.
        """
        good = _tiny_rtrc(tmp_path / "good.rtrc", n=200, block_events=50)
        data = good.read_bytes()
        assert 1000 < len(data) < 4000
        original = list(read_events(good))
        assert len(original) == 200
        p = tmp_path / "damaged.rtrc"

        def served(strict):
            """The events read, whether the warning came; None if refused."""
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    events = list(read_events(p, strict=strict))
                except RtrcFormatError:
                    return None, False
            assert all(w.category is TruncatedTraceWarning for w in caught)
            return events, bool(caught)

        variants = [data[:n] for n in range(len(data))] + [
            data[:i] + bytes([data[i] ^ 0x55]) + data[i + 1:] for i in range(len(data))
        ]
        tally = {"refused": 0, "short": 0, "full": 0}
        for damaged in variants:
            p.write_bytes(damaged)
            events, warned = served(strict=False)
            if events is None:
                tally["refused"] += 1
            else:
                assert events == original[: len(events)]
                assert warned or len(events) == len(original)
                tally["short" if len(events) < len(original) else "full"] += 1
            events, _ = served(strict=True)
            assert events is None or events == original
        # most damage costs a tail of the trace, not the trace
        assert tally["short"] > tally["refused"] > 0 and tally["full"] > 0, tally

    @pytest.mark.parametrize(
        "edit",
        [
            lambda head: head["v"][0].pop(),
            lambda head: head["v"][0].append(0),
            lambda head: head["r"].__setitem__(-1, -1),
            lambda head: head["r"].__setitem__(-1, len(head["h"])),
            lambda head: head["v"].append([]),
        ],
        ids=["value-short", "value-over", "key-negative", "key-past-end", "no-key"],
    )
    def test_a_block_whose_columns_do_not_add_up_is_damage(self, tmp_path, edit):
        """A well-framed block is still refused when its head's columns do
        not match: no event is made up from a neighbour's values or a blank."""
        p = _tiny_rtrc(tmp_path / "t.rtrc", n=10, block_events=10)
        original = list(read_events(p))
        _rewrite_block_head(p, lambda head: None)
        assert list(read_events(p, strict=True)) == original
        _rewrite_block_head(p, edit)
        with pytest.raises(RtrcFormatError, match="columns do not add up"):
            list(read_events(p, strict=True))
        with pytest.warns(TruncatedTraceWarning):
            assert list(read_events(p)) == []

    def test_a_side_time_without_a_time_is_damage(self, tmp_path):
        """``[row, t]`` is the one shape of a ``"t"`` side-list entry; no
        writer makes a ``[row]``, so a block holding one is damaged."""
        p = _tiny_rtrc(tmp_path / "t.rtrc", n=10, block_events=10)
        _rewrite_block_head(p, lambda head: head.__setitem__("t", [[3, 7]]))
        assert list(read_events(p, strict=True))[3]["t"] == 7
        _rewrite_block_head(p, lambda head: head.__setitem__("t", [[3]]))
        with pytest.raises(RtrcFormatError, match="damaged block"):
            list(read_events(p, strict=True))
        with RtrcReader(p) as reader:
            assert list(reader.iter_events()) == []
            assert reader.truncated


# -- container layout -------------------------------------------------------


def _frames(path):
    """(tag, inflated payload) per frame, walked by the documented layout."""
    data = Path(path).read_bytes()
    end = len(data) - 8 - len(TRAILER_MAGIC)
    offset = len(MAGIC)
    while offset < end:
        (clen,) = struct.unpack_from("<I", data, offset + 1)
        body = offset + 5
        yield data[offset:offset + 1], zlib.decompress(data[body:body + clen])
        offset = body + clen


def _rewrite_block_head(path, edit):
    """Rebuild a one-block container with ``edit`` applied to its block's head."""
    (_, block), (_, footer) = [f for f in _frames(path) if f[0] != b"M"]
    (head_len,) = struct.unpack_from("<I", block)
    head = json.loads(block[4:4 + head_len])
    edit(head)
    head_json = json.dumps(head).encode()
    payload = zlib.compress(struct.pack("<I", len(head_json)) + head_json
                            + block[4 + head_len:])
    body = path.read_bytes()[:json.loads(footer)["blocks"][0]["o"]]
    body += b"B" + struct.pack("<I", len(payload)) + payload
    footer = zlib.compress(footer)
    path.write_bytes(body + b"F" + struct.pack("<I", len(footer)) + footer
                     + struct.pack("<Q", len(body)) + TRAILER_MAGIC)


class TestLayout:
    def test_timestamps_and_key_ids_are_out_of_the_json(self, traced_run):
        """The structural gate: what a block holds, counted in bytes.

        Version 1 printed every timestamp as a 17-digit decimal and
        repeated a key id per value: 47.9 B/event on this run.  Version 2
        wrote one JSON row per event (32.1); version 3 one value column
        per distinct (kind, src, field names) key, 26.8.
        """
        tags, events, payload_bytes, first_t = "", 0, 0, None
        for tag, payload in _frames(traced_run.rtrc):
            tags += tag.decode()
            if tag != b"B":
                continue
            payload_bytes += len(payload)
            (head_len,) = struct.unpack_from("<I", payload)
            head = json.loads(payload[4:4 + head_len])
            column = payload[4 + head_len:]
            assert set(head) == {"h", "r", "v"}  # no "t": every t a float
            assert len(column) == 8 * len(head["r"])
            assert len(head["h"]) == len(head["v"]) < 100  # keys, not rows
            filed = Counter(head["r"])
            for ki, (_kind, _src, fields) in enumerate(head["h"]):
                assert len(head["v"][ki]) == filed[ki] * len(fields)
            if first_t is None:
                (first_t,) = struct.unpack_from("<d", column)  # little-endian
            events += len(head["r"])
        assert re.fullmatch("MB+F", tags)
        with RtrcReader(traced_run.rtrc) as reader:
            assert events == reader.events_total
            assert next(reader.iter_events())["t"] == first_t
        assert payload_bytes / events < 29.0, payload_bytes / events

    def test_one_kind_and_src_with_two_field_sets(self, tmp_path):
        """Two keys share (kind, src); each event gets its own values back."""
        recs = [
            {"t": 0.5, "kind": "k", "src": "s", "a": 1},
            {"t": 1.5, "kind": "k", "src": "s", "a": 2, "b": "x"},
            {"t": 2.5, "kind": "k", "src": "s", "b": "y", "a": 3},
            {"t": 3.5, "kind": "k", "src": "s", "a": 4},
            {"t": 4.5, "kind": "k", "src": "s", "a": 5, "b": "z"},
        ]
        p = tmp_path / "two.rtrc"
        w = RtrcWriter(p)
        for rec in recs:
            fields = dict(rec)
            w.record(fields.pop("kind"), fields.pop("t"), fields.pop("src"), fields)
        assert w.events_written == len(recs)
        w.close()
        (payload,) = [body for tag, body in _frames(p) if tag == b"B"]
        (head_len,) = struct.unpack_from("<I", payload)
        head = json.loads(payload[4:4 + head_len])
        assert head["h"] == [["k", "s", ["a"]], ["k", "s", ["a", "b"]],
                             ["k", "s", ["b", "a"]]]
        assert head["r"] == [0, 1, 2, 0, 1]
        assert head["v"] == [[1, 4], [2, "x", 5, "z"], ["y", 3]]
        got = list(read_events(p))
        assert got == recs
        assert [list(r) for r in got] == [list(r) for r in recs]  # key order

    def test_event_region_offset_lands_on_first_block(self, tmp_path):
        p = _tiny_rtrc(tmp_path / "t.rtrc")
        with RtrcReader(p) as reader, reader.event_stream() as f:
            assert f.read(1) == b"B"
            rest = f.read()
        assert p.read_bytes().endswith(b"B" + rest)

    def test_event_region_offset_rejects_non_rtrc(self, tmp_path):
        p = tmp_path / "x.rtrc"
        p.write_bytes(b"junk")
        with pytest.raises(RtrcFormatError):
            RtrcReader(p)
        p.write_bytes(MAGIC + b"junk")
        with RtrcReader(p) as reader:  # right magic, no meta frame behind it
            with pytest.raises(RtrcFormatError):
                reader.event_stream()

    def test_block_events_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            RtrcWriter(tmp_path / "x.rtrc", block_events=0)

    def test_empty_trace_roundtrips(self, tmp_path):
        p = tmp_path / "empty.rtrc"
        w = RtrcWriter(p)
        w.write_meta(generator="test")
        w.close()
        with RtrcReader(p) as reader:
            assert reader.events_total == 0
            assert reader.blocks_total == 0
            assert reader.meta["generator"] == "test"
        assert list(read_events(p)) == []


# -- the writer thread ------------------------------------------------------


def _writer_threads():
    return {t for t in threading.enumerate() if t.name == "rtrc-writer"}


class _FullDisk:
    """A file whose writes fail with ENOSPC on the writer thread only."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        if threading.current_thread().name == "rtrc-writer":
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)


class TestWriterThread:
    def test_a_raising_handler_leaves_a_readable_trace(self, tmp_path):
        """The session closes the writer on the way out: every block is
        in the file, the footer too, and the thread is gone."""
        from repro.obs.bus import EventBus

        before = _writer_threads()
        bus = EventBus()
        path = tmp_path / "t.rtrc"
        n = 2 * DEFAULT_BLOCK_EVENTS + 5
        with pytest.raises(RuntimeError, match="handler failed"):
            with trace_session(str(path), bus=bus, generator="test"):
                assert len(_writer_threads() - before) == 1
                for i in range(n):
                    bus.emit("cc.sample", i * 1e-3, "s", seq=i)
                raise RuntimeError("handler failed")
        assert not _writer_threads() - before
        with RtrcReader(path, strict=True) as reader:
            assert reader.blocks_total == 3
            assert [e["seq"] for e in reader.iter_events()] == list(range(n))

    @pytest.mark.parametrize("n", [5, 1000])
    def test_a_write_error_on_the_writer_thread_surfaces(self, tmp_path, monkeypatch, n):
        """With 100 flushes the error surfaces from a flush, and again from
        ``close``; with none it surfaces from ``close``."""
        import repro.obs.store as store

        before = _writer_threads()
        monkeypatch.setattr(
            store, "open", lambda p, mode: _FullDisk(open(p, mode)), raising=False
        )
        w = RtrcWriter(tmp_path / "full.rtrc", block_events=10)
        raised = []
        try:
            w.write_meta(generator="test")
            for i in range(n):
                w.record("cc.sample", i * 0.001, "s", {"seq": i})
        except OSError as exc:
            raised.append(exc)
        assert len(raised) == (n >= 100)
        with pytest.raises(OSError) as closing:
            w.close()
        assert closing.value.errno == errno.ENOSPC
        assert all(exc is closing.value for exc in raised)
        w.close()  # closed for good: nothing left to raise
        assert not _writer_threads() - before

    def test_frames_land_in_order_under_a_short_switch_interval(self, tmp_path):
        """Four writers fed from four threads (eight threads on the lock)
        with one-block-per-7-events flushes: a frame out of order or an
        offset lost between the threads would make the files differ or
        fail a strict read."""
        n, paths = 3000, [tmp_path / f"w{i}.rtrc" for i in range(4)]

        def feed(path):
            w = RtrcWriter(path, block_events=7)
            w.write_meta(generator="test")
            for i in range(n):
                w.record("cc.sample", i * 1e-3, f"s{i % 3}", {"seq": i})
            w.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            feeders = [threading.Thread(target=feed, args=(p,)) for p in paths]
            for t in feeders:
                t.start()
            for t in feeders:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in feeders)
        assert len({p.read_bytes() for p in paths}) == 1
        with RtrcReader(paths[0], strict=True) as reader:
            assert reader.blocks_total == -(-n // 7)
            assert [e["seq"] for e in reader.iter_events()] == list(range(n))


# -- the trace CLI ----------------------------------------------------------


class TestTraceCli:
    def _main(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_query_by_kind_matches_full_scan(self, traced_run, indexed, capsys):
        with RtrcReader(indexed) as reader:
            counts = reader.kind_counts()
        kind = min(counts, key=counts.get)
        assert self._main("trace", "query", str(indexed), "--kind", kind) == 0
        out, err = capsys.readouterr()
        rows = [json.loads(l) for l in out.splitlines()]
        assert rows == _filter(traced_run.events, kinds=[kind])
        assert f"[query] {len(rows)} matching" in err
        assert "skipped" in err  # the index tally is reported

    def test_query_stats_and_tail(self, indexed, capsys):
        assert self._main("trace", "query", str(indexed), "--stats") == 0
        out, _ = capsys.readouterr()
        assert "cc.sample" in out
        assert self._main(
            "trace", "query", str(indexed), "--kind", "cc.sample", "--tail", "3"
        ) == 0
        out, _ = capsys.readouterr()
        assert len(out.splitlines()) == 3

    def test_info_json(self, indexed, capsys):
        assert self._main("trace", "info", str(indexed), "--json") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["events"] > 10_000
        assert stats["meta"]["kind"] == "trace.meta"

    def test_missing_file_exits_2(self, capsys):
        assert self._main("trace", "info", "/no/such/trace.rtrc") == 2
        assert "error" in capsys.readouterr().err

    def test_foreign_container_exits_2_with_one_line(self, tmp_path, capsys):
        """Every sub-command says why in a line instead of a traceback."""
        old, junk = tmp_path / "old.rtrc", tmp_path / "junk.rtrc"
        old.write_bytes(b"RTRC\x01\n" + b"\0" * 32)
        junk.write_bytes(b"PK\x03\x04 not a trace")
        for argv, reason in (
            (("info", str(old)), "container version 1, this reader reads 3"),
            (("query", str(old), "--kind", "cc.sample"), "re-record the trace"),
            (("query", str(junk)), "bad magic"),
        ):
            assert self._main("trace", *argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and reason in err
            assert len(err.splitlines()) == 1

    def test_a_json_lines_trace_exits_2_with_one_line(self, tmp_path, capsys):
        """A trace an older tree wrote as JSON lines is a foreign file to
        ``trace info``, ``report`` and ``conform`` alike."""
        old = tmp_path / "t.jsonl"
        old.write_text('{"kind":"trace.meta","schema":1}\n'
                       '{"t":0.5,"kind":"cc.sample","src":"s"}\n')
        for argv in (("trace", "info", str(old)), ("report", str(old)),
                     ("conform", str(old))):
            assert self._main(*argv) == 2, argv
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "bad magic" in err, argv
            assert len(err.splitlines()) == 1, argv

    def test_run_trace_that_is_not_rtrc_is_a_usage_error(self, tmp_path, capsys):
        """Checked before the trace is opened: an existing file is untouched."""
        out_jsonl = tmp_path / "out.jsonl"
        out_jsonl.write_bytes(b"an earlier run's trace\n")
        for path in (out_jsonl, tmp_path / "new.txt"):
            assert self._main("run", "table1", "--trace", str(path)) == 2
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("error: ") and "'repro-udt trace query'" in err
        assert out_jsonl.read_bytes() == b"an earlier run's trace\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
        with pytest.raises(ValueError, match="trace query"):
            with trace_session(str(tmp_path / "lib.jsonl")):
                pass
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
