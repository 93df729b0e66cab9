"""Tests for packet-lifecycle span reconstruction and loss forensics."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs.export import TruncatedTraceWarning, read_events, trace_session
from repro.obs.report import render_report, report_dict
from repro.obs.spans import SpanBuilder, build_spans
from repro.obs.store import RtrcFormatError, RtrcReader, RtrcWriter


def _ev(kind, t, src, **fields):
    return dict(fields, kind=kind, t=t, src=src)


class TestSpanBuilder:
    def test_clean_delivery_lifecycle(self):
        b = SpanBuilder()
        b.feed_many(
            [
                _ev("pkt.snd", 0.10, "u0-snd", seq=1, size=1500, retx=False),
                _ev("link.enq", 0.10, "1->2", uid=7, flow="u0", seq=1, qlen=3),
                _ev("link.deq", 0.14, "1->2", uid=7, flow="u0", seq=1),
                _ev("pkt.rcv", 0.20, "u0-rcv", seq=1, retx=False),
                _ev("snd.ack", 0.30, "u0-snd", seq=2, light=False),
            ]
        )
        ss = b.build()
        assert ss.connections() == ["u0"]
        span = ss.spans["u0"][1]
        assert span.state == "acked"
        assert span.transmissions == 1
        assert span.retransmissions == 0
        assert span.first_sent == 0.10
        assert span.recv_t == 0.20
        assert span.acked_t == 0.30
        waits = ss.queue_waits[("1->2", "u0")]
        assert waits == [pytest.approx(0.04)]

    def test_retransmission_chain_after_drop(self):
        b = SpanBuilder()
        b.feed_many(
            [
                _ev("pkt.snd", 0.1, "u0-snd", seq=5, size=1500, retx=False),
                _ev("link.drop", 0.12, "1->2", reason="queue", size=1500,
                    flow="u0", uid=9, seq=5),
                _ev("pkt.snd", 0.15, "u0-snd", seq=6, size=1500, retx=False),
                _ev("pkt.rcv", 0.25, "u0-rcv", seq=6, retx=False),
                _ev("rcv.loss", 0.25, "u0-rcv", first=5, last=5, length=1),
                _ev("snd.nak", 0.35, "u0-snd", lost=1, ranges=1, froze=True),
                _ev("pkt.snd", 0.40, "u0-snd", seq=5, size=1500, retx=True),
                _ev("pkt.rcv", 0.50, "u0-rcv", seq=5, retx=True),
                _ev("snd.ack", 0.60, "u0-snd", seq=7, light=False),
            ]
        )
        ss = b.build()
        span = ss.spans["u0"][5]
        assert span.transmissions == 2
        assert span.retransmissions == 1
        assert span.nak_count == 1
        assert span.drops == [(0.12, "1->2", "queue")]
        assert span.state == "acked"
        f = ss.forensics("u0")
        assert f["pkts_sent"] == 2
        assert f["retransmissions"] == 1
        assert f["acked"] == 2
        assert f["naked_pkts"] == 1
        assert f["max_chain"] == 2
        assert f["drops_by_link"] == {"1->2": {"queue": 1}}
        assert f["naks"] == {"received": 1, "pkts_reported": 1}
        assert f["loss_events"]["count"] == 1

    def test_cumulative_ack_stops_at_boundary(self):
        b = SpanBuilder()
        for seq in (0, 1, 2):
            b.feed(_ev("pkt.snd", 0.1 * (seq + 1), "u0-snd", seq=seq, retx=False))
        b.feed(_ev("snd.ack", 0.5, "u0-snd", seq=2))
        ss = b.build()
        assert ss.spans["u0"][0].acked_t == 0.5
        assert ss.spans["u0"][1].acked_t == 0.5
        assert ss.spans["u0"][2].acked_t is None
        assert ss.spans["u0"][2].state == "in_flight"
        # a later ACK picks up from the pointer, not from the start
        b.feed(_ev("snd.ack", 0.7, "u0-snd", seq=3))
        assert ss.spans["u0"][2].acked_t == 0.7

    def test_control_drops_kept_separate(self):
        b = SpanBuilder()
        b.feed(_ev("link.drop", 0.2, "2->1", reason="queue", size=40,
                   flow="None", uid=3, seq=None))
        b.feed(_ev("pkt.snd", 0.1, "u0-snd", seq=0, retx=False))
        b.feed(_ev("link.drop", 0.3, "1->2", reason="loss", size=1500,
                   flow="u0", uid=4, seq=0))
        ss = b.build()
        # ctrl drop is not attributed to any connection's forensics...
        assert ss.forensics("u0")["drops_by_link"] == {"1->2": {"loss": 1}}
        # ...but still shows in the wire totals
        assert ss.total_drops() == {
            "1->2": {"loss": 1},
            "2->1": {"queue": 1},
        }

    def test_buffer_drop_and_exp_and_flow_done(self):
        b = SpanBuilder()
        b.feed_many(
            [
                _ev("pkt.snd", 0.1, "u0-snd", seq=0, retx=False),
                _ev("rcv.buffer_drop", 0.2, "u0-rcv", seq=0, size=1500),
                _ev("exp.timeout", 0.9, "u0-snd", exp_count=1, unacked=1),
                _ev("flow.done", 1.0, "u0", bytes=12345, elapsed=0.9),
            ]
        )
        ss = b.build()
        assert ss.buffer_drops["u0"] == 1
        assert ss.spans["u0"][0].buffer_drop_t == 0.2
        assert ss.spans["u0"][0].state == "dropped"
        assert ss.exp_timeouts["u0"] == 1
        assert ss.flow_done["u0"]["bytes"] == 12345
        assert ss.t_max == 1.0

    def test_unknown_kinds_ignored(self):
        b = SpanBuilder()
        b.feed(_ev("cc.sample", 0.1, "u0-snd", rate_bps=1e6))
        b.feed({"kind": "trace.meta", "schema": 1, "generator": "test"})
        ss = b.build()
        assert ss.events_consumed == 0
        assert ss.meta["generator"] == "test"
        assert ss.connections() == []


class TestReport:
    def _spanset(self):
        b = SpanBuilder()
        b.feed_many(
            [
                {"kind": "trace.meta", "schema": 1, "generator": "test"},
                _ev("pkt.snd", 0.1, "u0-snd", seq=0, retx=False),
                _ev("pkt.rcv", 0.2, "u0-rcv", seq=0, retx=False),
                _ev("snd.ack", 0.3, "u0-snd", seq=1),
            ]
        )
        return b.build()

    def test_render_report_mentions_connection(self):
        text = render_report(self._spanset())
        assert "packet-lifecycle report" in text
        assert "connection u0" in text
        assert "sent 1 unique seqs" in text

    def test_render_report_empty_trace_hints_at_detail_tier(self):
        text = render_report(SpanBuilder().build())
        assert "--trace-packets" in text

    def test_report_dict_schema(self):
        d = report_dict(self._spanset(), trace="t.rtrc")
        assert d["schema"] == 1
        assert d["kind"] == "trace.report"
        assert d["trace"] == "t.rtrc"
        assert d["connections"][0]["conn"] == "u0"
        json.dumps(d)  # must be JSON-serialisable as-is


class TestTruncatedTraces:
    def _write(self, tmp_path, events, cut_last_block=False):
        """An ``.rtrc`` of ``events`` in two-event blocks; optionally with
        its last block cut short, as a killed run leaves it."""
        p = tmp_path / "t.rtrc"
        w = RtrcWriter(p, block_events=2)
        w.write_meta()
        for rec in events:
            fields = dict(rec)
            w.record(fields.pop("kind"), fields.pop("t"), fields.pop("src"), fields)
        w.close()
        if cut_last_block:
            with RtrcReader(p) as reader:
                last = reader.index["blocks"][-1]["o"]
            p.write_bytes(p.read_bytes()[: last + 9])
        return str(p)

    def test_strict_mode_raises(self, tmp_path):
        path = self._write(tmp_path, [_ev("x", 0.0, "s")] * 3, cut_last_block=True)
        with pytest.raises(RtrcFormatError):
            list(read_events(path, strict=True))

    def test_clean_file_emits_no_warning(self, tmp_path, recwarn):
        path = self._write(tmp_path, [_ev("x", 0.0, "s")])
        with RtrcReader(path) as reader:
            assert len(list(reader.iter_events())) == 1
            assert reader.truncated is False
        assert len(list(read_events(path))) == 1
        assert not [w for w in recwarn.list if w.category is TruncatedTraceWarning]

    def test_build_spans_survives_truncation(self, tmp_path):
        path = self._write(
            tmp_path,
            [
                _ev("pkt.snd", 0.1, "u0-snd", seq=0, retx=False),
                _ev("pkt.snd", 0.15, "u0-snd", seq=1, retx=False),
                _ev("pkt.snd", 0.2, "u0-snd", seq=2, retx=False),
            ],
            cut_last_block=True,
        )
        with pytest.warns(TruncatedTraceWarning):
            ss = build_spans(path)
        assert sorted(ss.spans["u0"]) == [0, 1]
        assert ss.spans["u0"][0].transmissions == 1


class TestRoundTrip:
    """ISSUE satellite: traced fig08-style run -> spans must agree with the
    simulator's own ground-truth counters (link and queue drop counters,
    UdtStats, receiver loss events)."""

    @pytest.fixture(scope="class")
    def traced_run(self, tmp_path_factory):
        from repro.apps.bulk import UdpBlast
        from repro.sim.topology import path_topology
        from repro.sim.udp import UdpEndpoint
        from repro.udt import UdtConfig, start_udt_flow

        path = str(tmp_path_factory.mktemp("trace") / "fig08_small.rtrc")
        with trace_session(path, packets=True, generator="test-roundtrip"):
            top = path_topology(100e6, 0.02, seed=3, cross_sources=1)
            cfg = UdtConfig(rcv_buffer_pkts=20000, snd_buffer_pkts=20000)
            flow = start_udt_flow(
                top.net, top.src, top.dst, config=cfg, flow_id="udt-rt"
            )
            cross = [n for n in top.net.nodes.values() if n.name == "cross0"][0]
            sink = UdpEndpoint(top.dst, 9999)
            UdpBlast(
                top.net,
                cross,
                sink.address,
                rate_bps=100e6 * 9.5,
                on_time=0.10,
                off_time=0.40,
                start=0.5,
            )
            top.net.run(until=3.0)
        return path, top, flow

    def test_drops_match_metrics_registry(self, traced_run):
        """Per link, the drops the spans attribute to each cause equal the
        link's own ``queue.drops`` / ``pkts_lost`` counters."""
        path, top, _ = traced_run
        spanset = build_spans(path)
        totals = spanset.total_drops()
        for link in top.net.links.values():
            by_cause = totals.get(link.name, {})
            assert by_cause.get("queue", 0) == link.queue.drops, (
                f"queue drops disagree on {link.name}"
            )
            assert by_cause.get("loss", 0) == link.pkts_lost, (
                f"random-loss drops disagree on {link.name}"
            )
        # the congested run must actually have exercised the drop path
        assert sum(n for bc in totals.values() for n in bc.values()) > 0

    def test_transmissions_match_sender_stats(self, traced_run):
        path, _, flow = traced_run
        f = build_spans(path).forensics("udt-rt")
        assert f["transmissions"] == flow.sender.stats.data_pkts_sent
        assert f["retransmissions"] == flow.sender.stats.retransmitted_pkts
        assert f["retransmissions"] > 0  # congestion actually caused retx

    def test_loss_events_match_receiver(self, traced_run):
        path, _, flow = traced_run
        spanset = build_spans(path)
        assert spanset.loss_events["udt-rt"] == list(flow.receiver.loss_events)

    def test_report_renders_on_real_trace(self, traced_run):
        path, _, _ = traced_run
        text = render_report(build_spans(path))
        assert "connection udt-rt" in text
        assert "drops by link and cause" in text


class TestReportCli:
    def _summary_trace(self, tmp_path):
        """A real summary-only (no packet detail) trace of a tiny run."""
        from repro.obs.export import trace_session
        from repro.sim.topology import path_topology
        from repro.udt import start_udt_flow

        path = str(tmp_path / "summary.rtrc")
        with trace_session(path, generator="test", experiments=["fig04"]):
            top = path_topology(50e6, 0.02)
            start_udt_flow(top.net, top.src, top.dst)
            top.net.run(until=1.0)
        return path

    def test_summary_only_trace_hints_and_exits_zero(self, tmp_path, capsys):
        trace = self._summary_trace(tmp_path)
        assert cli_main(["report", trace]) == 0
        out = capsys.readouterr().out
        assert "--trace-packets" in out
        assert "packet-lifecycle report" not in out

    def test_report_without_trace_errors(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["report"])
