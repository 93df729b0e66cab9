"""Timeline recorder + instrumented-stack integration tests."""

import json

import pytest

from repro.obs.bus import (
    CC_SAMPLE,
    EXP_TIMEOUT,
    LINK_DROP,
    QUEUE_HIGHWATER,
    RCV_LOSS,
    SND_NAK,
    EventBus,
)
from repro.obs.export import trace_session
from repro.obs.timeline import TIMELINE_KINDS, TimelineRecorder
from repro.sim.topology import dumbbell, flow_start, path_topology
from repro.udt import start_udt_flow
from tests._collect import Collector


def _traced_lossy_run(recorder, trace_path=None):
    """One UDT flow over a lossy 100 Mb/s path, fully instrumented."""
    top = path_topology(100e6, 0.02, loss_rate=0.001)
    flow = start_udt_flow(top.net, top.src, top.dst)
    top.net.sim.bus.subscribe(recorder.record, kinds=TIMELINE_KINDS)
    with trace_session(trace_path, generator="test"):
        top.net.run(until=5.0)
    return flow


class TestTimelineRecorder:
    def test_live_capture_has_cc_trajectory(self):
        rec = TimelineRecorder()
        flow = _traced_lossy_run(rec)
        snd, rcv = flow.sender.name, flow.receiver.name
        assert snd in rec.connections()
        series = rec.series(snd)
        assert len(series) > 100  # ~1 sample per SYN over 5 s
        # fields are populated and dynamic
        rates = rec.rates(snd)
        assert rates[0][1] != rates[-1][1]
        assert any(s.rtt > 0 for s in series)
        assert any(s.bw_est > 0 for s in series)
        assert any(s.cwnd > 0 for s in series)
        # loss happened on a 0.1% lossy link -> NAK marks recorded
        assert rec.loss_times(snd) or rec.loss_times(rcv)
        assert rec.mean_rate_bps(snd) > 0

    def test_windows_series(self):
        rec = TimelineRecorder()
        flow = _traced_lossy_run(rec)
        w = rec.windows(flow.sender.name)
        assert w and all(len(row) == 3 for row in w)

    def test_jsonl_rebuild_matches_live(self, tmp_path, capsys):
        """From the trace, and from the JSON lines ``trace query`` prints."""
        from repro.cli import main

        path = str(tmp_path / "t.rtrc")
        live = TimelineRecorder()
        flow = _traced_lossy_run(live, trace_path=path)
        assert main(["trace", "query", path, *(f"--kind={k}" for k in TIMELINE_KINDS)]) == 0
        from_lines = TimelineRecorder()
        for line in capsys.readouterr().out.splitlines():
            rec = json.loads(line)
            from_lines.record(rec.pop("kind"), rec.pop("t"), rec.pop("src"), rec)
        for rebuilt in (TimelineRecorder.from_trace(path), from_lines):
            assert rebuilt.connections() == live.connections()
            assert rebuilt.series(flow.sender.name) == live.series(flow.sender.name)
            assert rebuilt.marks == live.marks

    def test_max_samples_cap(self):
        rec = TimelineRecorder(max_samples_per_conn=10)
        flow = _traced_lossy_run(rec)
        assert len(rec.series(flow.sender.name)) == 10


class TestInstrumentedStack:
    def test_congested_run_emits_drop_and_highwater(self):
        """Two flows into one 10 Mb/s bottleneck must overflow the queue:
        the trace shows queue drops, receiver holes and sender NAKs."""
        events = Collector()
        d = dumbbell(2, 10e6, 0.02, seed=1)
        d.net.sim.bus.subscribe(events)
        for i in range(2):
            start_udt_flow(d.net, d.sources[i], d.sinks[i], flow_id=f"f{i}")
        d.net.run(until=8.0)
        kinds = {e.kind for e in events}
        assert QUEUE_HIGHWATER in kinds
        assert LINK_DROP in kinds
        assert RCV_LOSS in kinds
        assert SND_NAK in kinds
        assert CC_SAMPLE in kinds
        drop = next(e for e in events if e.kind == LINK_DROP)
        assert drop.fields["reason"] in ("queue", "loss")
        # high-water marks are monotone per link and end at the queue's
        # own peak counter
        by_name = {link.name: link for link in d.net.links.values()}
        for link in {e.src for e in events if e.kind == QUEUE_HIGHWATER}:
            marks = [
                e.fields["pkts"] for e in events
                if e.kind == QUEUE_HIGHWATER and e.src == link
            ]
            assert marks == sorted(marks)
            assert marks[-1] == by_name[link].queue.peak_pkts >= 1

    def test_exp_timeout_event_on_dead_peer(self):
        """Kill the return path mid-flow: the sender's EXP timer events
        appear on the bus with escalating counts."""
        events = Collector()
        top = path_topology(50e6, 0.02)
        top.net.sim.bus.subscribe(events, kinds=(EXP_TIMEOUT,))
        flow = start_udt_flow(top.net, top.src, top.dst)
        top.net.run(until=2.0)
        # Silent death: no Shutdown packet reaches the sender (close()
        # would announce itself), so its EXP timer must escalate.
        flow.receiver.closed = True
        flow.receiver.connected = False
        top.net.run(until=12.0)
        assert events, "no EXP events recorded"
        counts = [e.fields["exp_count"] for e in events]
        assert counts == sorted(counts)
        assert all(e.fields["unacked"] > 0 for e in events)

    def test_a_simulations_bus_hears_only_that_simulation(self):
        mine, theirs = Collector(), Collector()
        tops = [path_topology(50e6, 0.02), path_topology(50e6, 0.02)]
        for top, events in zip(tops, (mine, theirs)):
            top.net.sim.bus.subscribe(events)
        flow = start_udt_flow(tops[0].net, tops[0].src, tops[0].dst)
        tops[0].net.run(until=1.0)
        tops[1].net.run(until=1.0)
        # every component of the flow's network emitted on its bus ...
        assert {e.src for e in mine} >= {
            flow.sender.name, flow.receiver.name, tops[0].bottleneck.name
        }
        # ... and the other simulation, idle, heard none of it
        assert mine and not theirs

    def test_cpu_meter_emits_aggregated_charges(self):
        from repro.hostmodel.cpu import UDT_SENDER_COSTS, CpuMeter
        from repro.obs.bus import CPU_CHARGE

        bus = EventBus()
        events = Collector()
        bus.subscribe(events, kinds=(CPU_CHARGE,))
        clock = [0.0]
        meter = CpuMeter(
            UDT_SENDER_COSTS, lambda: clock[0], bus=bus, name="m", emit_every=10
        )
        for i in range(35):
            clock[0] += 0.001
            meter.on_data_sent(1500)
        assert len(events) == 3  # 35 // 10
        assert events[-1].fields["total_cycles"] == pytest.approx(
            meter.total_cycles, rel=0.2
        )
        assert events[0].fields["util"] > 0


class TestCcEvents:
    def test_slow_start_exit_and_decrease_events(self):
        """Each slow-start exit and decrease is followed, at the same ``t``
        and ``src``, by the ``cc.sample`` of the same CC update.  Its
        ``window`` is the sample's ``cwnd`` (packets) and the update's last
        ``period`` is the sample's ``period`` (seconds), so swapped or
        mis-scaled payload keys show up as a mismatch."""
        from repro.obs.bus import CC_DECREASE, CC_SLOWSTART_EXIT

        events = Collector()
        d = dumbbell(2, 10e6, 0.02, seed=1)  # tight shared link -> losses
        d.net.sim.bus.subscribe(
            events, kinds=(CC_SLOWSTART_EXIT, CC_DECREASE, CC_SAMPLE)
        )
        for i in range(2):
            start_udt_flow(d.net, d.sources[i], d.sinks[i], start=flow_start(i))
        d.net.run(until=6.0)
        checked = {CC_SLOWSTART_EXIT: 0, CC_DECREASE: 0}
        update = []  # CC events since the last sample
        for e in events:
            if e.kind != CC_SAMPLE:
                assert e.src.endswith("-snd"), e
                update.append(e)
                continue
            for ev in update:
                assert (ev.t, ev.src) == (e.t, e.src), ev
                if "window" in ev.fields:
                    assert ev.fields["window"] == e.fields["cwnd"], ev
                checked[ev.kind] += 1
            if update:
                assert update[-1].fields["period"] == e.fields["period"], update
            update = []
        assert not update, "CC events with no sample after them"
        assert checked[CC_SLOWSTART_EXIT] == 2 and checked[CC_DECREASE] > 2
        assert {e.fields["trigger"] for e in events if e.kind == CC_DECREASE} == {
            "loss"
        }

    def test_delay_warning_event(self):
        from repro.obs.bus import CC_DELAY_WARNING
        from repro.udt.delaycc import DelayWarningCC
        from repro.udt.params import UdtConfig

        bus = EventBus()
        events = Collector()
        bus.subscribe(events, kinds=(CC_DELAY_WARNING,))
        cc = DelayWarningCC(UdtConfig())

        class Ctx:
            def now(self):
                return 1.0

            rtt = 0.01
            recv_rate = 100.0
            bandwidth = 0.0
            max_seq_sent = 5
            achieved_period = 0.0

        cc.init(Ctx())
        cc.bus = bus
        cc.src = "dcc"
        cc.on_delay_warning()
        assert len(events) == 1
        assert events[0].fields["period"] == cc.period

    def test_cc_without_bus_is_safe(self):
        from repro.udt.cc import UdtNativeCC
        from repro.udt.params import UdtConfig

        cc = UdtNativeCC(UdtConfig())
        # no ctx, no bus: _emit must be a silent no-op
        cc._emit(CC_SAMPLE, period=1.0)
