"""The two trace formats behind one seam: round-trips, parity, index queries.

The contract under test is the one the trace pipeline stands on:

* every consumer (``read_events``, ``TimelineRecorder.from_jsonl``,
  ``build_spans``, the report CLI) sees the *same* flat event dicts from
  the ``.jsonl`` and the ``.rtrc`` trace of one run, and the two readers
  ``open_trace`` returns answer every query identically;
* ``convert_trace`` covers all four format pairs, ``jsonl -> rtrc ->
  jsonl`` is byte-exact, and an ``.rtrc`` written live off the bus is
  byte-identical to one converted from the JSONL of the same run
  (deterministic blocks + fixed-level zlib);
* kind/src/time-range queries answer from the footer index, *skipping*
  blocks — asserted via the reader's block counters;
* truncated containers degrade to the complete-block prefix with a
  warning, like crash-truncated JSONL;
* ``repro.obs.export`` is the only module that tests a trace suffix.

The shared fixture records one packet-tier fig04 run once with both
writers subscribed to the same bus, so live-vs-file comparisons are
exact.
"""

import json
import re
import warnings
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.experiments import get_experiment
from repro.obs import TimelineRecorder, TruncatedTraceWarning, trace_session
from repro.obs.export import convert_trace, open_trace, read_events
from repro.obs.spans import build_spans
from repro.obs.store import MAGIC, RtrcFormatError, RtrcReader, RtrcWriter

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

RUN_KW = dict(n_flows=2, rate_bps=20e6, rtts=(0.01,), duration=3.0)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One packet-tier fig04 run recorded to both formats at once."""
    d = tmp_path_factory.mktemp("traces")
    jsonl, rtrc = d / "t.jsonl", d / "t.rtrc"
    live = TimelineRecorder()
    live.attach()
    try:
        with trace_session(str(jsonl), packets=True, generator="test"), \
             trace_session(str(rtrc), packets=True, generator="test"):
            get_experiment("fig04").runner(**RUN_KW)
    finally:
        live.detach()
    return SimpleNamespace(dir=d, jsonl=jsonl, rtrc=rtrc, live=live)


# -- byte-level round trips -------------------------------------------------


class TestRoundTrip:
    def test_rtrc_is_much_smaller_than_jsonl(self, traced_run):
        ratio = traced_run.rtrc.stat().st_size / traced_run.jsonl.stat().st_size
        assert ratio <= 0.25, f".rtrc is {ratio:.1%} of the JSONL size"

    def test_live_rtrc_equals_converted_rtrc(self, traced_run, tmp_path):
        """Bus -> .rtrc and bus -> .jsonl -> .rtrc give identical bytes."""
        conv = tmp_path / "conv.rtrc"
        n = convert_trace(traced_run.jsonl, conv)
        assert n > 1000
        assert conv.read_bytes() == traced_run.rtrc.read_bytes()

    def test_rtrc_to_jsonl_is_byte_exact(self, traced_run, tmp_path):
        back = tmp_path / "back.jsonl"
        n = convert_trace(traced_run.rtrc, back)
        assert back.read_bytes() == traced_run.jsonl.read_bytes()
        with RtrcReader(traced_run.rtrc) as reader:
            assert n == reader.events_total

    def test_converter_matrix(self, traced_run, tmp_path):
        """One converter, all four (src, dst) pairs, same bytes and count."""
        by_suffix = {".jsonl": traced_run.jsonl, ".rtrc": traced_run.rtrc}
        counts = set()
        for src in by_suffix.values():
            for suffix, same_format in by_suffix.items():
                dst = tmp_path / f"from-{src.suffix[1:]}{suffix}"
                counts.add(convert_trace(src, dst))
                assert dst.read_bytes() == same_format.read_bytes(), dst.name
        with open_trace(traced_run.jsonl) as reader:
            assert counts == {reader.events_total}


# -- consumer equivalence across formats ------------------------------------


class TestConsumerEquivalence:
    def test_read_events_yields_identical_dicts(self, traced_run):
        ja = list(read_events(str(traced_run.jsonl), include_meta=True))
        rb = list(read_events(str(traced_run.rtrc), include_meta=True))
        assert len(ja) > 10_000
        assert ja == rb

    def test_timeline_rebuild_matches_live(self, traced_run):
        from_jsonl = TimelineRecorder.from_jsonl(str(traced_run.jsonl))
        from_rtrc = TimelineRecorder.from_jsonl(str(traced_run.rtrc))
        live = traced_run.live
        assert from_jsonl.connections() == live.connections()
        assert from_rtrc.connections() == live.connections()
        for conn in live.connections():
            assert from_jsonl.series(conn) == live.series(conn)
            assert from_rtrc.series(conn) == live.series(conn)
        assert from_jsonl.marks == live.marks
        assert from_rtrc.marks == live.marks

    def test_spanset_identical_across_formats(self, traced_run):
        sj = build_spans(str(traced_run.jsonl))
        sr = build_spans(str(traced_run.rtrc))
        assert sj.events_consumed == sr.events_consumed > 10_000
        assert sj.connections() == sr.connections()
        for conn in sj.connections():
            assert sj.forensics(conn) == sr.forensics(conn)


# -- index-based querying ---------------------------------------------------


@pytest.fixture(scope="module")
def indexed(traced_run, tmp_path_factory):
    """The run's trace re-blocked small, so index skipping is visible."""
    path = tmp_path_factory.mktemp("indexed") / "small-blocks.rtrc"
    convert_trace(traced_run.jsonl, path, block_events=512)
    return path


def _scan(path, kinds=None, srcs=None, t0=None, t1=None):
    out = []
    for rec in read_events(str(path), kinds=kinds):
        if srcs is not None and rec.get("src") not in srcs:
            continue
        t = rec.get("t", 0.0)
        if t0 is not None and t < t0:
            continue
        if t1 is not None and t > t1:
            continue
        out.append(rec)
    return out


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
        assert got == _scan(traced_run.jsonl, kinds=[kind])

    def test_time_range_query_matches_scan_and_skips(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            lo, hi = reader.time_range()
            t0 = lo + (hi - lo) * 0.4
            t1 = lo + (hi - lo) * 0.45
            got = list(reader.iter_events(t0=t0, t1=t1))
            assert reader.blocks_skipped > 0
        assert got == _scan(traced_run.jsonl, t0=t0, t1=t1)

    def test_src_query_matches_scan(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            src = reader.srcs()[0]
            got = list(reader.iter_events(srcs=[src]))
        assert got == _scan(traced_run.jsonl, srcs={src})
        assert got, "src filter matched nothing"

    def test_stats_come_from_index_alone(self, traced_run, indexed):
        with RtrcReader(indexed) as reader:
            stats = reader.stats()
            assert reader.blocks_read == 0  # nothing decompressed
        expected = {}
        for rec in read_events(str(traced_run.jsonl)):
            expected[rec["kind"]] = expected.get(rec["kind"], 0) + 1
        assert stats["kinds"] == expected
        assert stats["events"] == sum(expected.values())
        assert not stats["truncated"]

    def test_read_events_stats_carry_block_counters(self, indexed):
        stats = {}
        with RtrcReader(indexed) as reader:
            counts = reader.kind_counts()
        kind = min(counts, key=counts.get)
        n = sum(1 for _ in read_events(str(indexed), kinds=[kind], stats=stats))
        assert n == counts[kind]
        assert stats["blocks_read"] >= 1
        assert stats["blocks_skipped"] > 0
        assert stats["skipped_lines"] == 0


class TestReaderParity:
    """``open_trace`` hands out two readers with one surface and one answer."""

    def test_every_query_yields_identical_records(self, traced_run, indexed):
        """The kinds / srcs / t0 / t1 combinations of TestIndexQueries."""
        with open_trace(traced_run.jsonl) as scan, open_trace(indexed) as index:
            assert scan.meta == index.meta
            assert scan.meta["kind"] == "trace.meta"
            stats = index.stats()
            rare = min(stats["kinds"], key=stats["kinds"].get)
            lo, hi = stats["t0"], stats["t1"]
            window = {"t0": lo + (hi - lo) * 0.4, "t1": lo + (hi - lo) * 0.45}
            for query in (
                {"include_meta": True},
                {"kinds": [rare]},
                window,
                {"srcs": [stats["srcs"][0]]},
                dict(window, kinds=["pkt.snd"], srcs=["f0-snd"]),
            ):
                n = 0
                for a, b in zip_longest(
                    scan.iter_events(**query), index.iter_events(**query)
                ):
                    assert a == b, (query, n)
                    n += 1
                assert n > 0, query
            assert list(scan.iter_jsonl(kinds=[rare])) == list(
                index.iter_jsonl(kinds=[rare])
            )

    def test_shared_stats_keys_agree(self, traced_run):
        with open_trace(traced_run.jsonl) as scan, open_trace(traced_run.rtrc) as index:
            a, b = scan.stats(), index.stats()
            assert scan.events_total == index.events_total == a["events"]
            assert not scan.truncated and not index.truncated
        shared = set(a) & set(b)
        assert shared >= {"events", "t0", "t1", "kinds", "srcs", "truncated"}
        assert set(a) - shared == set() and set(b) - shared == {"blocks"}
        for key in shared - {"path", "format"}:
            assert a[key] == b[key], key
        assert (a["format"], b["format"]) == ("jsonl", "rtrc")

    def test_event_streams_start_after_the_meta_record(self, traced_run):
        with open_trace(traced_run.jsonl) as scan, scan.event_stream() as f:
            first = f.readline()
        assert b'"trace.meta"' not in first and json.loads(first)["t"] >= 0.0
        with open_trace(traced_run.rtrc) as index, index.event_stream() as f:
            assert f.read(1) == b"B"


def test_only_export_tests_a_trace_suffix():
    """The on-disk format is one module's decision (CI greps the same)."""
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
        w.feed({"t": i * 0.001, "kind": "cc.sample", "src": "s", "seq": i})
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


# -- container layout -------------------------------------------------------


class TestLayout:
    def test_event_region_offset_lands_on_first_block(self, tmp_path):
        p = _tiny_rtrc(tmp_path / "t.rtrc")
        with open_trace(p) as reader, reader.event_stream() as f:
            assert f.read(1) == b"B"
            rest = f.read()
        assert p.read_bytes().endswith(b"B" + rest)

    def test_event_region_offset_rejects_non_rtrc(self, tmp_path):
        p = tmp_path / "x.rtrc"
        p.write_bytes(b"junk")
        with pytest.raises(RtrcFormatError):
            open_trace(p)
        p.write_bytes(MAGIC + b"junk")
        with open_trace(p) as reader:  # right magic, no meta frame behind it
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
        assert rows == _scan(traced_run.jsonl, kinds=[kind])
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

    def test_query_to_jsonl_carries_meta(self, indexed, tmp_path, capsys):
        dst = tmp_path / "slice.jsonl"
        assert self._main(
            "trace", "query", str(indexed), "--kind", "cc.sample",
            "--to-jsonl", str(dst),
        ) == 0
        capsys.readouterr()
        first = dst.read_text().splitlines()[0]
        assert '"trace.meta"' in first

    def test_info_json(self, indexed, capsys):
        assert self._main("trace", "info", str(indexed), "--json") == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["format"] == "rtrc"
        assert stats["events"] > 10_000
        assert stats["meta"]["kind"] == "trace.meta"

    def test_convert_chain_via_cli(self, traced_run, tmp_path, capsys):
        rtrc = tmp_path / "c.rtrc"
        back = tmp_path / "c.jsonl"
        assert self._main(
            "trace", "convert", str(traced_run.jsonl), str(rtrc)
        ) == 0
        assert self._main("trace", "convert", str(rtrc), str(back)) == 0
        capsys.readouterr()
        assert back.read_bytes() == traced_run.jsonl.read_bytes()

    def test_convert_counts_events_not_lines(self, tmp_path, capsys):
        """A header-less JSONL has as many events as lines (was lines - 1)."""
        src, dst = tmp_path / "bare.jsonl", tmp_path / "out.jsonl"
        rows = [{"t": i * 0.5, "kind": "x", "src": "s", "i": i} for i in range(3)]
        src.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert self._main("trace", "convert", str(src), str(dst)) == 0
        assert "[convert] 3 event(s)" in capsys.readouterr().err
        assert [json.loads(l) for l in dst.read_text().splitlines()] == rows

    def test_convert_drops_a_truncated_last_line(self, traced_run, tmp_path, capsys):
        """A crash-truncated tail is skipped with the readers' warning."""
        lines = traced_run.jsonl.read_text().splitlines()[:50]
        src, dst = tmp_path / "cut.jsonl", tmp_path / "out.jsonl"
        src.write_text("\n".join(lines) + "\n" + lines[-1][:17])
        with pytest.warns(TruncatedTraceWarning):
            assert self._main("trace", "convert", str(src), str(dst)) == 0
        assert "[convert] 49 event(s)" in capsys.readouterr().err
        assert dst.read_text() == "\n".join(lines) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncatedTraceWarning)
            assert len(list(read_events(dst))) == 49

    def test_missing_file_exits_2(self, capsys):
        assert self._main("trace", "info", "/no/such/trace.rtrc") == 2
        assert "error" in capsys.readouterr().err
