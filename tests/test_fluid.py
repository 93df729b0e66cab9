"""Fluid-approximation tier tests (repro.sim.fluid).

Covers the satellite checklist for the hybrid tier: fidelity selection
and plumbing, max-min share math, fluid-span boundary behaviour (source
ON/OFF epochs, flow joins), byte-counter conservation, digest/sweep key
separation between fidelity tiers, and hybrid≡packet metric equivalence
on reduced fig02/fig06 runs judged in the hybrid tolerance bands of
repro.obs.claims.
"""

import math

import pytest

from repro.obs import bus as OB
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidController
from repro.sim.monitor import FlowMonitor
from repro.sim.topology import (
    FIDELITIES,
    FIDELITY_ENV,
    Network,
    ambient_fidelity,
    dumbbell,
    path_topology,
)
from repro.udt import start_udt_flow
from tests._collect import Collector, every_run


@pytest.fixture
def fluid_events():
    """Collect fluid.enter/fluid.exit events from every simulation the
    test runs, including those an experiment runner builds."""
    events = Collector()
    with every_run(events, kinds=(OB.FLUID_ENTER, OB.FLUID_EXIT)):
        yield events


def _spans(events):
    """(enter_t, exit_t, reason) per completed span, in order."""
    out = []
    enter_t = None
    for e in events:
        if e.kind == OB.FLUID_ENTER:
            enter_t = e.t
        elif e.kind == OB.FLUID_EXIT and enter_t is not None:
            out.append((enter_t, e.t, e.fields["reason"]))
            enter_t = None
    return out


class TestAmbientFidelity:
    def test_defaults_to_packet(self, monkeypatch):
        monkeypatch.delenv(FIDELITY_ENV, raising=False)
        assert ambient_fidelity() == "packet"

    def test_reads_env(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        assert ambient_fidelity() == "hybrid"

    def test_rejects_unknown_tier(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "quantum")
        with pytest.raises(ValueError, match="quantum"):
            ambient_fidelity()

    def test_network_reads_ambient_fidelity(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        net = Network()
        assert net.fidelity == "hybrid"
        assert isinstance(net.fluid, FluidController)

    def test_explicit_fidelity_wins(self, monkeypatch):
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        net = Network(fidelity="packet")
        assert net.fidelity == "packet"
        assert net.fluid is None

    def test_packet_is_the_default_tier(self, monkeypatch):
        monkeypatch.delenv(FIDELITY_ENV, raising=False)
        assert Network().fluid is None
        assert FIDELITIES == ("packet", "hybrid")


class TestMaxMinShares:
    def test_equal_split_on_one_link(self):
        shares = FluidController._maxmin_shares([10.0, 10.0], [[0, 1]], [10.0])
        assert shares == pytest.approx([5.0, 5.0])

    def test_demand_capped_flow_releases_capacity(self):
        shares = FluidController._maxmin_shares([2.0, 10.0], [[0, 1]], [10.0])
        assert shares == pytest.approx([2.0, 8.0])

    def test_two_links_progressive_fill(self):
        # flow0 crosses both links, flow1 only A (cap 10), flow2 only B
        # (cap 20).  Fair share on A is 5; flow2 then takes B's slack.
        shares = FluidController._maxmin_shares(
            [100.0, 100.0, 100.0], [[0, 1], [0, 2]], [10.0, 20.0]
        )
        assert shares == pytest.approx([5.0, 5.0, 15.0])

    def test_shares_never_exceed_capacity(self):
        demands = [7.0, 3.0, 9.0, 1.0]
        members = [[0, 1, 2, 3], [2, 3]]
        capacity = [12.0, 6.0]
        shares = FluidController._maxmin_shares(demands, members, capacity)
        for mem, cap in zip(members, capacity):
            assert sum(shares[i] for i in mem) <= cap + 1e-9
        for s, d in zip(shares, demands):
            assert 0.0 <= s <= d + 1e-9


class TestByteConservation:
    def test_credit_span_conserves_bytes_exactly(self):
        m = FlowMonitor(Simulator(), bin_width=0.1)
        m.credit_span("f", 0.3, 1.7, 12345)
        assert m.total_bytes["f"] == 12345
        # every bin together holds exactly the credited total
        assert sum(m._bins["f"].values()) == 12345
        # and the throughput query over a superset window sees all of it
        assert m.throughput_bps("f", 0.0, 2.0) * 2.0 / 8.0 == pytest.approx(12345)

    def test_credit_span_uniform_apportioning(self):
        m = FlowMonitor(Simulator(), bin_width=0.1)
        m.credit_span("f", 0.0, 1.0, 1000)
        bins = m._bins["f"]
        assert len(bins) == 10
        assert all(v == 100 for v in bins.values())

    def test_adapter_credit_floors_fractional_bytes(self):
        # The adapter accumulates fractional analytic bytes and books the
        # integer floor: two credits of 10.4 bytes yield 20, not 21.
        top = path_topology(50e6, 0.02, seed=1)
        top.net.fidelity = "hybrid"
        top.net.fluid = FluidController(top.net)
        f = start_udt_flow(top.net, top.src, top.dst)
        f.record_arrivals()
        adapter = top.net.fluid.flows[0]
        adapter.credit(0.0, 1.0, 10.4)
        adapter.credit(1.0, 2.0, 10.4)
        assert adapter._credited == 20
        assert top.net.monitor.total_bytes[f.flow_id] == 20
        assert top.net.monitor.total_bytes[f.arrival_flow_id] == 20

    def test_adapter_credits_no_arrivals_unless_recorded(self):
        top = path_topology(50e6, 0.02, seed=1)
        top.net.fidelity = "hybrid"
        top.net.fluid = FluidController(top.net)
        f = start_udt_flow(top.net, top.src, top.dst)
        top.net.fluid.flows[0].credit(0.0, 1.0, 20.0)
        assert dict(top.net.monitor.total_bytes) == {f.flow_id: 20}

    def test_hybrid_run_conserves_monitor_bytes(self):
        # monitor total == packet-level delivered bytes + analytic credit:
        # the fluid tier never double-books nor loses a byte.
        net_top = path_topology(50e6, 0.02, seed=0)
        net_top.net.fidelity = "hybrid"
        net_top.net.fluid = FluidController(net_top.net)
        f = start_udt_flow(net_top.net, net_top.src, net_top.dst)
        net_top.net.run(until=10.0)
        ctrl = net_top.net.fluid
        assert ctrl.spans >= 1
        adapter = ctrl.flows[0]
        total = net_top.net.monitor.total_bytes[f.flow_id]
        assert total == f.delivered_bytes + adapter._credited
        assert adapter._credited > 0


class TestHybridRun:
    def test_single_flow_matches_packet_throughput(self, monkeypatch,
                                                   fluid_events):
        def goodput(fidelity):
            monkeypatch.setenv(FIDELITY_ENV, fidelity)
            top = path_topology(100e6, 0.02, seed=0)
            f = start_udt_flow(top.net, top.src, top.dst)
            top.net.run(until=6.0)
            return top.net.fluid, f.throughput_bps(3.0, 6.0)

        _none, packet = goodput("packet")
        ctrl, hybrid = goodput("hybrid")
        assert ctrl is not None and ctrl.spans >= 1
        assert ctrl.fluid_time > 0.0
        assert hybrid > 90e6
        assert hybrid == pytest.approx(packet, rel=0.10)
        # enter/exit events are emitted in pairs, one per span
        enters = [e for e in fluid_events if e.kind == OB.FLUID_ENTER]
        exits = [e for e in fluid_events if e.kind == OB.FLUID_EXIT]
        assert len(enters) == len(exits) == ctrl.spans

    def test_spans_do_not_advance_sequence_numbers(self, monkeypatch):
        # The no-seqno-advance contract: analytic delivery is booked to
        # the monitor only; the receiver's packet-level byte counter
        # stays behind the monitor total by exactly the credited bytes.
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        top = path_topology(50e6, 0.02, seed=0)
        f = start_udt_flow(top.net, top.src, top.dst)
        top.net.run(until=10.0)
        credited = top.net.fluid.flows[0]._credited
        assert credited > 0
        assert f.delivered_bytes + credited == top.net.monitor.total_bytes[f.flow_id]


class TestSpanBoundaries:
    def test_spans_never_straddle_blast_epochs(self, monkeypatch,
                                               fluid_events):
        # An ON/OFF UDP blast is a CC-relevant boundary: every fluid span
        # must end before the next burst starts, with the packet engine
        # awake for the burst itself.
        from repro.apps.bulk import UdpBlast
        from repro.sim.udp import UdpEndpoint

        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        top = path_topology(50e6, 0.02, seed=0, cross_sources=1)
        start_udt_flow(top.net, top.src, top.dst)
        cross = [n for n in top.net.nodes.values() if n.name == "cross0"][0]
        sink = UdpEndpoint(top.dst, 9999)
        blast = UdpBlast(
            top.net,
            cross,
            sink.address,
            rate_bps=10e6,
            on_time=0.1,
            off_time=1.9,
            start=3.0,
        )
        # Record the *actual* burst epochs: the OFF interval restarts from
        # the tick that notices the burst is over, so epochs drift off the
        # nominal 2 s grid by a fraction of a packet interval per cycle.
        on_starts = []
        orig_start = blast._start_burst

        def logged_start():
            on_starts.append(top.net.sim.now)
            orig_start()

        blast._start_burst = logged_start
        top.net.run(until=11.0)
        assert len(on_starts) >= 3
        spans = _spans(fluid_events)
        assert spans, "the fluid tier never entered a span"
        for enter_t, exit_t, _reason in spans:
            for b in on_starts:
                assert not (enter_t < b < exit_t), (
                    f"span [{enter_t}, {exit_t}] straddles the blast "
                    f"epoch at t={b}"
                )
        # at least one span was cut by the boundary: it ends at most one
        # SYN tick plus the safety margin short of the burst start (ramp
        # spans advance in whole SYN intervals)
        margin = FluidController.BOUNDARY_MARGIN
        syn = 0.01
        boundary_exits = [t1 for _t0, t1, r in spans if r == "boundary"]
        assert boundary_exits
        for t1 in boundary_exits:
            upcoming = [b - t1 for b in on_starts if b > t1]
            if not upcoming:
                continue  # span cut by a burst past the run horizon
            gap = min(upcoming)
            assert margin - 1e-9 <= gap <= margin + syn + 1e-9

    def test_no_spans_before_late_flow_joins(self, monkeypatch,
                                             fluid_events):
        # A flow that has not yet connected blocks the tier: the packet
        # engine must witness the join (handshake, slow start) and fluid
        # spans only resume once every registered flow is steady.
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        d = dumbbell(2, 40e6, 0.02, seed=0)
        start_udt_flow(d.net, d.sources[0], d.sinks[0], flow_id="early")
        start_udt_flow(d.net, d.sources[1], d.sinks[1], start=6.0,
                       flow_id="late")
        d.net.run(until=18.0)
        assert d.net.fluid.spans >= 1
        enters = [e.t for e in fluid_events if e.kind == OB.FLUID_ENTER]
        assert enters and min(enters) > 6.0

    def test_horizon_bounds_the_span(self, monkeypatch, fluid_events):
        # run(until=...) is a hard analytic bound: no span may extend
        # beyond the requested horizon.
        monkeypatch.setenv(FIDELITY_ENV, "hybrid")
        top = path_topology(50e6, 0.02, seed=0)
        start_udt_flow(top.net, top.src, top.dst)
        top.net.run(until=7.0)
        assert top.net.sim.now <= 7.0 + 1e-9
        for _enter_t, exit_t, _reason in _spans(fluid_events):
            assert exit_t <= 7.0 + 1e-9


class TestCacheKeySeparation:
    def test_digest_differs_between_fidelity_tiers(self):
        from repro.runner.digest import experiment_digest

        packet, _ = experiment_digest("fig02", 0.05)
        packet2, _ = experiment_digest("fig02", 0.05, fidelity="packet")
        hybrid, _ = experiment_digest("fig02", 0.05, fidelity="hybrid")
        assert packet == packet2  # explicit packet == the default
        assert packet != hybrid

    def test_sweep_key_suffix_only_for_hybrid(self):
        from repro.runner.sweep import SweepReport

        packet = SweepReport("fig02", 0.05, 2, ["fig02"])
        hybrid = SweepReport("fig02", 0.05, 2, ["fig02"], fidelity="hybrid")
        # packet keys keep the historical shape (CI baselines use them)
        assert packet.key == "fig02|scale=0.05|jobs=2"
        assert hybrid.key == "fig02|scale=0.05|jobs=2|fidelity=hybrid"


@pytest.mark.slow
class TestHybridEquivalence:
    """Reduced fig02/fig06 runs: hybrid within the ledger's hybrid bands."""

    def test_fig02_jain_within_hybrid_band(self, monkeypatch):
        from repro.experiments.fig02_fairness import _run_flows
        from repro.metrics import jain_index
        from repro.obs.claims import asked

        def jain(fidelity):
            monkeypatch.setenv(FIDELITY_ENV, fidelity)
            d, flows = _run_flows("udt", 4, 40e6, 0.02, 24.0, seed=0)
            thr = [f.throughput_bps(6.0, 24.0) for f in flows]
            return d.net.fluid, jain_index(thr)

        _none, packet = jain("packet")
        ctrl, hybrid = jain("hybrid")
        assert ctrl.spans >= 1
        # one RTT point: the sweep mean and min both reduce to the index
        bands = {m.name: m for m in asked("fig02", hybrid=True)}
        for name in ("udt_jain_mean", "udt_jain_min"):
            allowed = bands[name].drift_band(packet, hybrid=True)
            assert abs(hybrid - packet) <= allowed, (
                f"{name}: |{hybrid} - {packet}| > {allowed}"
            )

    def test_fig06_metrics_within_hybrid_bands(self, monkeypatch,
                                               fluid_events):
        """The hybrid gate's own comparison: hybrid rows against the packet
        reference in the Metric.hybrid_tolerance bands."""
        from repro.experiments.fig06_rtt_fairness import run
        from repro.obs.claims import evaluate, measure
        from repro.obs.figspec import ResultTable

        def table(fidelity):
            monkeypatch.setenv(FIDELITY_ENV, fidelity)
            return ResultTable(run(rate_bps=50e6, rtts=(0.02,), duration=20.0, seed=0))

        reference = measure("fig06", table("packet"), hybrid=True)
        rows = evaluate("fig06", table("hybrid"), reference, hybrid=True)
        assert any(e.kind == OB.FLUID_ENTER for e in fluid_events)
        assert [r["metric"] for r in rows] == [
            "ref_flow_mean_mbps", "var_flow_mean_mbps"]
        assert not [r for r in rows if r["drifted"]], rows
