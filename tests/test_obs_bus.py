"""Event bus and JSONL export unit tests."""

import io
import json

import pytest

from repro.obs.bus import CC_SAMPLE, LINK_DROP, EventBus
from repro.obs.export import JsonlWriter, TraceSummary, read_events, trace_session
from tests._collect import Collector, Seen


def _emit_three(bus):
    bus.emit(CC_SAMPLE, 0.5, "udt0-snd", rate_bps=1e6, cwnd=16.0)
    bus.emit(LINK_DROP, 0.7, "1->2", reason="queue", size=1500)
    bus.emit(CC_SAMPLE, 0.9, "udt0-snd", rate_bps=2e6, cwnd=8.0)


#: what :func:`_emit_three` delivers, in order
THREE = [
    Seen(CC_SAMPLE, 0.5, "udt0-snd", {"rate_bps": 1e6, "cwnd": 16.0}),
    Seen(LINK_DROP, 0.7, "1->2", {"reason": "queue", "size": 1500}),
    Seen(CC_SAMPLE, 0.9, "udt0-snd", {"rate_bps": 2e6, "cwnd": 8.0}),
]


class TestEventBus:
    def test_subscribe_enables_unsubscribe_disables(self):
        bus = EventBus()
        assert not bus.enabled
        got = Collector()
        sub = bus.subscribe(got)
        assert bus.enabled
        bus.emit("x.kind", 1.0, "src", a=1)
        assert got == [Seen("x.kind", 1.0, "src", {"a": 1})]
        bus.unsubscribe(sub)
        assert not bus.enabled
        bus.emit("x.kind", 2.0, "src")
        assert len(got) == 1

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        sub = bus.subscribe(lambda *_: None)
        bus.unsubscribe(sub)
        bus.unsubscribe(sub)  # no error
        assert bus.subscriber_count == 0

    def test_multiple_subscribers_fan_out(self):
        bus = EventBus()
        a, b = Collector(), Collector()
        bus.subscribe(a)
        bus.subscribe(b)
        bus.emit("k", 0.0, "s")
        assert a == b == [Seen("k", 0.0, "s", {})]

    def test_kind_filtering(self):
        bus = EventBus()
        only_cc, everything = Collector(), Collector()
        bus.subscribe(only_cc, kinds=(CC_SAMPLE,))
        bus.subscribe(everything)
        bus.emit(CC_SAMPLE, 0.0, "s", rate_bps=1.0)
        bus.emit(LINK_DROP, 0.1, "l", reason="queue")
        assert [e.kind for e in only_cc] == [CC_SAMPLE]
        assert [e.kind for e in everything] == [CC_SAMPLE, LINK_DROP]

    def test_disabled_emit_is_noop(self):
        bus = EventBus()
        assert bus.emit("k", 0.0, "s", a=1) is None

    def test_a_new_simulators_bus_is_its_own_and_dormant(self):
        from repro.sim.engine import Simulator

        a, b = Simulator(), Simulator()
        assert isinstance(a.bus, EventBus) and a.bus is not b.bus
        assert not a.bus.enabled and not a.bus.detail

    def test_disabled_bus_overhead_path(self):
        """The emit-site pattern: a disabled bus means no keyword dict and
        no call.

        This is the contract hot paths rely on — subscribe, count, then
        unsubscribe and verify emission stops dead at the guard.
        """
        bus = EventBus()
        calls = []
        # instrumented component pattern
        def hot_path():
            if bus.enabled:
                bus.emit("hot.event", 0.0, "c", expensive=calls.append(1))

        hot_path()
        assert calls == []  # guard short-circuits: fields never evaluated
        sub = bus.subscribe(lambda *_: None)
        hot_path()
        assert calls == [1]
        bus.unsubscribe(sub)
        hot_path()
        assert calls == [1]


class TestDelivery:
    """The ways an event reaches subscribers: nobody, one unfiltered
    subscriber, one kind-filtered subscriber, and two subscribers.  Each
    delivers the same ``(kind, t, src, fields)``."""

    def test_no_subscriber(self):
        bus = EventBus()
        _emit_three(bus)  # nothing to call, nothing raised
        assert bus.subscriber_count == 0 and not bus.enabled

    def test_one_unfiltered_subscriber(self):
        bus = EventBus()
        got = Collector()
        bus.subscribe(got)
        _emit_three(bus)
        assert got == THREE

    def test_one_filtered_subscriber(self):
        bus = EventBus()
        got = Collector()
        bus.subscribe(got, kinds=(CC_SAMPLE,))
        _emit_three(bus)
        assert got == [e for e in THREE if e.kind == CC_SAMPLE]

    def test_two_subscribers_share_one_fields_dict(self):
        bus = EventBus()
        a, b = Collector(), Collector()
        bus.subscribe(a)
        bus.subscribe(b)
        _emit_three(bus)
        assert a == b == THREE
        assert all(x.fields is y.fields for x, y in zip(a, b))

    @pytest.mark.parametrize("drop_first", [True, False], ids=["fifo", "lifo"])
    def test_unsubscribing_in_either_order(self, drop_first):
        bus = EventBus()
        a, b = Collector(), Collector()
        sub_a = bus.subscribe(a)
        sub_b = bus.subscribe(b, detail=True)
        first, (kept, kept_sub) = (
            (sub_a, (b, sub_b)) if drop_first else (sub_b, (a, sub_a))
        )
        bus.unsubscribe(first)
        assert bus.enabled and bus.detail == (kept is b)
        _emit_three(bus)
        assert kept == THREE
        bus.unsubscribe(kept_sub)
        assert not bus.enabled and not bus.detail
        _emit_three(bus)
        assert kept == THREE and len(a) + len(b) == len(THREE)

    def test_dropping_a_filtered_subscriber_keeps_the_other(self):
        bus = EventBus()
        a, b = Collector(), Collector()
        bus.subscribe(a)
        sub_b = bus.subscribe(b, kinds=(LINK_DROP,))
        _emit_three(bus)
        assert a == THREE and b == [THREE[1]]
        bus.unsubscribe(sub_b)
        _emit_three(bus)
        assert a == THREE + THREE and b == [THREE[1]]


class TestJsonlExport:
    def test_writer_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        bus = EventBus()
        with trace_session(path, bus=bus, generator="test") as w:
            bus.emit(CC_SAMPLE, 0.5, "udt0-snd", rate_bps=1e6, cwnd=16.0)
            bus.emit(LINK_DROP, 0.7, "1->2", reason="queue", size=1500)
        assert w.events_written == 2
        assert not bus.enabled  # writer unsubscribed on exit
        with open(path) as fh:
            lines = [json.loads(l) for l in fh]
        assert lines[0]["kind"] == "trace.meta"
        assert lines[0]["schema"] == 1
        assert lines[0]["generator"] == "test"
        assert lines[1] == {
            "t": 0.5,
            "kind": CC_SAMPLE,
            "src": "udt0-snd",
            "rate_bps": 1e6,
            "cwnd": 16.0,
        }
        evs = list(read_events(path))
        assert len(evs) == 2  # meta skipped
        assert list(read_events(path, kinds=(LINK_DROP,)))[0]["size"] == 1500
        assert list(read_events(path, include_meta=True))[0]["kind"] == "trace.meta"

    def test_record_is_flat(self):
        buf = io.StringIO()
        JsonlWriter(buf).record("cc.sample", 1.5, "udt0-snd", {"rate_bps": 2.0})
        assert buf.getvalue() == (
            '{"t":1.5,"kind":"cc.sample","src":"udt0-snd","rate_bps":2.0}\n'
        )

    def test_writer_serialises_non_json_fields_as_str(self):
        buf = io.StringIO()
        w = JsonlWriter(buf)
        w.record("flow.done", 0.0, "f", {"flow": ("udt0", "arr")})
        rec = json.loads(buf.getvalue())
        assert isinstance(rec["flow"], (str, list))

    def test_kind_filtered_writer(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        bus = EventBus()
        with trace_session(path, bus=bus, kinds=(CC_SAMPLE,)):
            bus.emit(CC_SAMPLE, 0.0, "s")
            bus.emit(LINK_DROP, 0.1, "l")
        assert [e["kind"] for e in read_events(path)] == [CC_SAMPLE]


class TestTraceSummary:
    def test_counts_and_last_cc(self):
        s = TraceSummary()
        s.record(CC_SAMPLE, 0.1, "udt0-snd", {"rate_bps": 1e6, "cwnd": 8.0})
        s.record(CC_SAMPLE, 0.2, "udt0-snd", {"rate_bps": 2e6, "cwnd": 9.0})
        s.record(LINK_DROP, 0.15, "1->2", {"reason": "queue"})
        assert s.total_events == 3
        assert s.counts[CC_SAMPLE] == 2
        assert s.last_cc["udt0-snd"]["rate_bps"] == 2e6
        assert s.t_min == 0.1 and s.t_max == 0.2
        text = s.to_text()
        assert "cc.sample" in text and "2.00 Mb/s" in text

