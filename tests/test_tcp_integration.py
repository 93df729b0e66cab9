"""Integration tests: TCP flows over the simulated network."""

import pytest

from repro.sim.topology import dumbbell, flow_start, path_topology
from repro.hostmodel import TCP_RECEIVER_COSTS, TCP_SENDER_COSTS, CpuMeter
from repro.tcp import (
    BicResponse,
    HighSpeedResponse,
    ScalableResponse,
    TcpConfig,
    TcpFlow,
    VegasResponse,
    WestwoodResponse,
    start_tcp_flow,
)
from tests._frames import count_calls, top_calls


def test_fills_low_bdp_link():
    top = path_topology(10e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst)
    top.net.run(until=10.0)
    assert f.throughput_bps(3, 10) > 9e6


def test_finite_transfer_exact_and_done():
    top = path_topology(10e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=300_000)
    top.net.run(until=10.0)
    assert f.done
    assert f.delivered_bytes == 300_000
    assert f.sink.fin_seen


def test_recovers_from_random_loss_exactly():
    top = path_topology(10e6, 0.02, loss_rate=0.002)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=1_000_000)
    top.net.run(until=60.0)
    assert f.done
    assert f.delivered_bytes == 1_000_000
    assert f.sender.stats.retransmits > 0


def test_congestion_halves_window():
    top = path_topology(10e6, 0.02, queue_pkts=20)
    f = start_tcp_flow(top.net, top.src, top.dst)
    top.net.run(until=10.0)
    s = f.sender.stats
    assert s.fast_recoveries > 0
    # sustained operation despite drops
    assert f.throughput_bps(5, 10) > 7e6


def test_two_flows_share_link():
    d = dumbbell(2, 20e6, 0.02)
    f1 = start_tcp_flow(d.net, d.sources[0], d.sinks[0])
    f2 = start_tcp_flow(d.net, d.sources[1], d.sinks[1], start=1.0)
    d.net.run(until=30.0)
    t1, t2 = f1.throughput_bps(15, 30), f2.throughput_bps(15, 30)
    assert t1 + t2 > 17e6
    assert min(t1, t2) / max(t1, t2) > 0.4


def test_rtt_bias_short_beats_long():
    """§2.2: concurrent TCP flows with different RTTs — RTT bias."""
    from repro.sim.topology import join_topology
    from repro.tcp import TcpFlow

    # A modest queue keeps queueing delay from equalising the RTTs.
    j = join_topology(rate_bps=100e6, rtt_a=0.1, rtt_b=0.01, queue_pkts=100)
    fa = TcpFlow(j.net, j.src_a, j.sink, flow_id="long")
    fb = TcpFlow(j.net, j.src_b, j.sink, flow_id="short")
    j.net.run(until=30.0)
    assert fb.throughput_bps(10, 30) > 2.0 * fa.throughput_bps(10, 30)


def test_rwnd_limits_flight():
    cfg = TcpConfig(rwnd_pkts=16)
    top = path_topology(100e6, 0.1)
    f = start_tcp_flow(top.net, top.src, top.dst, config=cfg)
    top.net.run(until=5.0)
    assert f.sender.snd_nxt - f.sender.snd_una <= 16
    assert f.throughput_bps(2, 5) < 5e6


def test_rto_recovers_tail_loss():
    # Lossy enough that the final segments may need timeouts.
    top = path_topology(5e6, 0.05, loss_rate=0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=200_000)
    top.net.run(until=120.0)
    assert f.done
    assert f.delivered_bytes == 200_000


@pytest.mark.parametrize(
    "response_cls",
    [HighSpeedResponse, ScalableResponse, BicResponse, VegasResponse, WestwoodResponse],
)
def test_variants_fill_link(response_cls):
    top = path_topology(50e6, 0.02)
    f = start_tcp_flow(top.net, top.src, top.dst, response=response_cls())
    top.net.run(until=15.0)
    assert f.throughput_bps(8, 15) > 35e6


def test_highspeed_ramps_faster_than_reno_at_high_bdp():
    """The §5.2 claim: HighSpeed probes available bandwidth faster.

    Four virtual seconds are the shortest horizon that shows it on seeds
    0-2: over 2-4 s HighSpeed holds the link (605 Mb/s on each) while Reno
    climbs back from its losses at 417 / 461 / 232 Mb/s, a ratio of
    1.45 / 1.31 / 2.59 (until 2.5 s seed 1's Reno has not lost a packet
    yet; over 5-8 s the ratios are 1.76 / 3.03 / 3.78).
    """

    def run(response):
        top = path_topology(622e6, 0.016, loss_rate=1e-5)
        f = start_tcp_flow(top.net, top.src, top.dst, response=response)
        top.net.run(until=4.0)
        return f.throughput_bps(2, 4)

    assert run(HighSpeedResponse()) > 1.2 * run(None)  # None -> Reno


# What every decision of the protocol left behind, per scenario:
# (per-flow rows, events_processed, monitor totals by flow_id, monitor
# totals by arrival_flow_id, scenario extras).  A row is (delivered_bytes,
# segs_sent, retransmits, timeouts, fast_recoveries, acks_received,
# repr(cwnd), repr(srtt), repr(rto)) — repr, not a rounding: the floats
# must be the same floats.  The bookkeeping is an implementation detail;
# none of this may move.  The first three scenarios are PR 12's (their
# integers were captured from the scan-based scoreboard and the
# cancel-and-reschedule RTO timer; cwnd was then compared to 9 places);
# everything else was captured on commit 4e5c960, the parent of the
# agent's straight path, and pins each branch that path guards.  Together
# with the ``_reference_scoreboard`` differential in
# tests/test_tcp_scoreboard.py these stand in for a frozen copy of the
# old agent.


def _bulk(n, rate, rtt, loss_rate=0.0, seed=3, response=None):
    def build():
        top = dumbbell(n, rate, rtt, seed=seed, loss_rate=loss_rate)
        flows = [
            start_tcp_flow(
                top.net, top.sources[i], top.sinks[i], start=flow_start(i),
                response=response() if response is not None else None,
            )
            for i in range(n)
        ]
        return top.net, flows, dict  # no extras

    return build


def _finite_partial_last():
    """1 000 001 bytes: 684 full segments and a FIN of 1 361 bytes."""
    top = path_topology(10e6, 0.02, loss_rate=0.002, seed=5)
    f = start_tcp_flow(top.net, top.src, top.dst, nbytes=1_000_001)

    def extras():
        snd = f.sender
        return {
            "done": f.done, "finish_time": repr(f.finish_time),
            "total_pkts": snd.total_pkts, "last_size": snd.last_size,
            "fin_seen": f.sink.fin_seen, "snd_una": snd.snd_una,
        }

    return top.net, [f], extras


def _app_limited():
    """Offers that are no multiple of the payload, with idle gaps between."""
    top = path_topology(10e6, 0.02, seed=5)
    f = TcpFlow(top.net, top.src, top.dst)
    for t, nbytes in ((0.1, 700), (0.2, 50_000), (0.9, 1_000), (1.0, 333_333)):
        top.net.sim.schedule_at(t, f.offer, nbytes)
    return top.net, [f], lambda: {
        "snd_nxt": f.sender.snd_nxt, "snd_una": f.sender.snd_una,
        "offered": f.sender._offered_bytes,
    }


def _metered():
    """fig14's TCP cell: both endpoints charge a CPU meter per packet."""
    top = path_topology(1e9, 0.001, seed=0)
    clock = lambda: top.net.sim.now  # noqa: E731
    ts = CpuMeter(TCP_SENDER_COSTS, clock)
    tr = CpuMeter(TCP_RECEIVER_COSTS, clock)
    f = TcpFlow(top.net, top.src, top.dst, meter_snd=ts, meter_rcv=tr)
    return top.net, [f], lambda: {
        "snd_cycles": repr(ts.total_cycles), "rcv_cycles": repr(tr.total_cycles),
    }


def _delivery_tap():
    """A tap sees every in-order delivery, held runs included, after the
    monitor has booked it."""
    top = path_topology(10e6, 0.02, loss_rate=0.005, seed=5)
    f = start_tcp_flow(top.net, top.src, top.dst)
    seen = []
    totals = top.net.monitor.total_bytes
    f.add_delivery_tap(lambda n: seen.append((n, totals[f.flow_id])))
    return top.net, [f], lambda: {
        "taps": len(seen), "tap_bytes": sum(n for n, _ in seen),
        "monitor_at_last_tap": seen[-1][1],
    }


# name -> (builder, virtual seconds)
GOLDEN_SCENARIOS = {
    "4flows-p0.001": (_bulk(4, 100e6, 0.05, 1e-3), 6.0),
    # heavy random loss: 17 retransmission timeouts
    "3flows-p0.02": (_bulk(3, 50e6, 0.1, 2e-2), 10.0),
    # congestion loss only
    "8flows-p0.0": (_bulk(8, 200e6, 0.02), 4.0),
    # the benchmark's tcp_wan shape: slow start overshoots the queue at
    # 0.25 s, one SACK recovery episode, then loss-free steady state
    "wan-seed1": (_bulk(2, 622e6, 0.032, seed=1), 1.0),
    "wan-seed2": (_bulk(2, 622e6, 0.032, seed=2), 1.0),
    "highspeed": (_bulk(2, 100e6, 0.02, 1e-3, response=HighSpeedResponse), 3.0),
    "scalable": (_bulk(2, 100e6, 0.02, 1e-3, response=ScalableResponse), 3.0),
    "bic": (_bulk(2, 100e6, 0.02, 1e-3, response=BicResponse), 3.0),
    "vegas": (_bulk(2, 100e6, 0.02, 1e-3, response=VegasResponse), 3.0),
    "westwood": (_bulk(2, 100e6, 0.02, 1e-3, response=WestwoodResponse), 3.0),
    "finite-partial-last": (_finite_partial_last, 10.0),
    "app-limited": (_app_limited, 3.0),
    "metered": (_metered, 0.3),
    "delivery-tap": (_delivery_tap, 3.0),
}

GOLDEN_RUNS = {
    "4flows-p0.001": (
        [
            (8155560, 5768, 180, 0, 8, 5541,
             "40.50725540383566", "0.05025326338720072", "0.2"),
            (7894220, 5437, 7, 0, 5, 5376,
             "51.004172246212526", "0.05015912876113166", "0.2"),
            (13175040, 9349, 325, 0, 6, 8957,
             "60.45030304711936", "0.050361548839749276", "0.2"),
            (12120920, 8638, 262, 0, 5, 8271,
             "95.44473537625277", "0.05026387087845321", "0.2"),
        ],
        195860,
        [8155560, 7894220, 13175040, 12120920],
        [8155560, 7894220, 13175040, 12120920],
        {},
    ),
    "3flows-p0.02": (
        [
            (1908220, 1377, 61, 6, 19, 1318,
             "8.855359528677269", "0.1015546470854278", "0.2"),
            (1562200, 1124, 44, 4, 15, 1065,
             "9.937669326538627", "0.10107134598463283", "0.2"),
            (1419120, 1031, 47, 7, 17, 974,
             "11.68095174462524", "0.10127999068550034", "0.2"),
        ],
        23772,
        [1908220, 1562200, 1419120],
        [1908220, 1562200, 1419120],
        {},
    ),
    "8flows-p0.0": (
        [
            (12347220, 8646, 135, 0, 5, 8457,
             "53.44636587035797", "0.029428547894807772", "0.2"),
            (13052400, 9108, 133, 0, 4, 8886,
             "88.73894405891576", "0.029453243793759444", "0.2"),
            (12834860, 8889, 98, 0, 4, 8721,
             "69.47454646821878", "0.02900716128988682", "0.2"),
            (9027180, 6259, 70, 0, 5, 6140,
             "48.46284787614482", "0.029066693531575805", "0.2"),
            (8970240, 6263, 70, 0, 5, 6144,
             "48.40729953175825", "0.02911840084364514", "0.2"),
            (14315300, 9951, 72, 0, 3, 9805,
             "73.68673355155", "0.029189786184140337", "0.2"),
            (15852680, 10993, 70, 0, 3, 10858,
             "64.88775471311932", "0.029250089580555017", "0.2"),
            (8958560, 6254, 70, 0, 5, 6136,
             "47.51203969131316", "0.02933593351455914", "0.2"),
        ],
        460887,
        [12347220, 13052400, 12834860, 9027180,
         8970240, 14315300, 15852680, 8958560],
        [12347220, 13052400, 12834860, 9027180,
         8970240, 14315300, 15852680, 8958560],
        {},
    ),
    "wan-seed1": (
        [
            (34178600, 25713, 2047, 0, 2, 22627,
             "1038.245431519122", "0.032490166551953456", "0.2"),
            (21456160, 16570, 1273, 0, 2, 14648,
             "648.6683149440662", "0.03250790313691436", "0.2"),
        ],
        278411,
        [34178600, 21456160],
        [34178600, 21456160],
        {},
    ),
    "wan-seed2": (
        [
            (34466220, 26321, 2058, 0, 2, 23227,
             "1035.5523035858423", "0.03242310896670536", "0.2"),
            (21172920, 15973, 1273, 0, 2, 14052,
             "647.2762782891269", "0.032426284208538866", "0.2"),
        ],
        278438,
        [34466220, 21172920],
        [34466220, 21172920],
        {},
    ),
    "highspeed": (
        [
            (15000040, 10630, 356, 0, 9, 10235,
             "26.20982253012702", "0.020179714053194672", "0.2"),
            (13969280, 9920, 277, 0, 8, 9598,
             "36.22337586750877", "0.020153356422709406", "0.2"),
        ],
        139724,
        [15000040, 13969280],
        [15000040, 14032060],
        {},
    ),
    "scalable": (
        [
            (20797700, 18968, 4544, 0, 7, 14202,
             "210.74646219248123", "0.035785160515916584", "0.2"),
            (14437940, 12247, 2319, 0, 11, 9832,
             "89.58240921987155", "0.03559321053611267", "0.2"),
        ],
        183882,
        [20797700, 14437940],
        [20797700, 14437940],
        {},
    ),
    "bic": (
        [
            (20609360, 18742, 4510, 0, 7, 14019,
             "199.48656193299792", "0.0362613583868021", "0.2"),
            (14617520, 12772, 2658, 0, 11, 10005,
             "101.33724355107147", "0.0362515296889042", "0.2"),
        ],
        184397,
        [20609360, 14617520],
        [20609360, 14617520],
        {},
    ),
    "vegas": (
        [
            (13751740, 9788, 323, 0, 11, 9394,
             "58.0436053276062", "0.020320722779519712", "0.2"),
            (15984080, 11730, 775, 0, 12, 10908,
             "40.054394245147705", "0.02016935561685458", "0.2"),
        ],
        142617,
        [13751740, 15984080],
        [13751740, 15984080],
        {},
    ),
    "westwood": (
        [
            (16722840, 11797, 226, 0, 16, 11431,
             "134.09539728104656", "0.031843072752256195", "0.2"),
            (18496740, 13655, 910, 0, 12, 12599,
             "131.9482437141466", "0.031748969563886315", "0.2"),
        ],
        172149,
        [16722840, 18496740],
        [16734520, 18496740],
        {},
    ),
    "finite-partial-last": (
        [
            (1000001, 808, 123, 0, 2, 682,
             "60.16287510149089", "0.25082015612258235", "0.5806491179478819"),
        ],
        5213,
        [1000001],
        [1000001],
        {
            "done": True,
            "finish_time": "0.8949276676955907",
            "total_pkts": 685,
            "last_size": 1361,
            "fin_seen": True,
            "snd_una": 685,
        },
    ),
    "app-limited": (
        [
            (383980, 278, 15, 1, 1, 263,
             "2.5", "0.15770362004329083", "0.4"),
        ],
        2017,
        [383980],
        [383980],
        {
            "snd_nxt": 263,
            "snd_una": 263,
            "offered": 385033,
        },
    ),
    "metered": (
        [
            (35895560, 24907, 191, 0, 3, 24545,
             "170.9815132687671", "0.0020425782535208837", "0.2"),
        ],
        173015,
        [35895560],
        [35895560],
        {
            "snd_cycles": "488859539.7485875",
            "rcv_cycles": "486627324.97996354",
        },
    ),
    "delivery-tap": (
        [
            (3276240, 2322, 68, 0, 10, 2221,
             "18.623406798448443", "0.02252474124045585", "0.2"),
        ],
        15907,
        [3276240],
        [3276240],
        {
            "taps": 2244,
            "tap_bytes": 3276240,
            "monitor_at_last_tap": 3276240,
        },
    ),
}


def observe_golden(name):
    build, duration = GOLDEN_SCENARIOS[name]
    net, flows, extras = build()
    for f in flows:
        f.record_arrivals()
    net.run(until=duration)
    rows = []
    for f in flows:
        snd, st = f.sender, f.sender.stats
        rows.append((
            f.delivered_bytes, st.segs_sent, st.retransmits, st.timeouts,
            st.fast_recoveries, st.acks_received,
            repr(snd.cwnd), repr(snd.srtt), repr(snd.rto),
        ))
    totals = net.monitor.total_bytes
    return (
        rows,
        net.sim.events_processed,
        [totals[f.flow_id] for f in flows],
        [totals[f.arrival_flow_id] for f in flows],
        extras(),
    )


@pytest.mark.parametrize("scenario", GOLDEN_SCENARIOS)
def test_golden_per_flow_behaviour(scenario):
    assert observe_golden(scenario) == GOLDEN_RUNS[scenario]


#: Python-level calls per segment sent over the loss-free window below:
#: a ceiling that catches added work, not a target.  A lowered figure
#: lands only beside a ``tcp_wan`` ``wall_s`` row (docs/PERFORMANCE.md).
FRAMES_PER_SEGMENT = 36.97


def test_frame_budget_per_segment(record_property):
    """Calls per segment stay at the straight path's figure.

    The ``tcp_wan`` dumbbell, seed 1, under ``sys.setprofile`` — a count
    that repeats exactly on any host, so the gain cannot erode where
    wall-clock gating is impossible.  Virtual 1.0-1.2 s is loss-free
    steady state: 10 377 segments leave, 10 365 ACKs return, 72 574 events.
    The agent of commit 4e5c960 made 756 862 calls there, 72.94 per
    segment; the straight path makes 476 921, 45.96, of which 31.97 are the
    six link hops, the two ``Packet`` records and the monitor.  A link
    into a router hands the packet to the next link (no ``Router.receive``
    on the four router hops) and a flow books arrival bins only when it
    records them: 425 090, 40.96.  A link into a host hands the segment
    or ACK to its port's slot (no ``Host.receive`` on the two host hops)
    and admits and drains on the queue's fields (no
    ``DropTailQueue.push``/``pop``): 383 598, 36.97, beside a ``tcp_wan``
    ``wall_s`` row (docs/PERFORMANCE.md's optimisation log).  The budget
    catches added work and is
    not a target: a call cut can cost time (``SimScheduler.now`` as a
    ``partial``: 1.70 calls fewer per UDT packet, +1.0 % ``udt_clean``
    ``wall_s``, ahead on 0 of 8 pairs), so a lowered figure lands only
    beside a ``wall_s`` row.  One frame of slack per segment: a new
    call on the per-segment path needs a reason and a new figure here; a
    failure prints the largest calls per segment.  The recovery episode
    (0.25-0.75 s: 28 287 segments, 3 320 of them retransmissions) is
    counted on the way and reported, not gated: 67.52 before, 46.70 at
    the straight path, 42.30 with the next hop, 38.17 now.  The steady
    window also made 694 608 C calls, 66.94 per segment, which no frame
    shows; ``min`` and ``max`` 2.00 each (the window, the RTO clamp).
    Written as comparisons: 663 511, 63.94, and none may come back
    (docs/PERFORMANCE.md, "What the frame budget cannot see").
    """
    build, _ = GOLDEN_SCENARIOS["wan-seed1"]
    net, flows, _ = build()

    def sent():
        return (
            sum(f.sender.stats.segs_sent for f in flows),
            sum(f.sender.stats.retransmits for f in flows),
        )

    net.run(until=0.25)
    segs0, retx0 = sent()
    calls = sum(count_calls(net, 0.75)[0].values())
    segs, retx = sent()
    assert (segs - segs0, retx - retx0) == (28287, 3320)
    record_property("recovery_frames_per_segment", round(calls / (segs - segs0), 2))
    print(f"recovery window: {calls} calls, {calls / (segs - segs0):.2f} per segment")

    net.run(until=1.0)
    segs0, retx0 = sent()
    tally, builtins = count_calls(net, 1.2)
    segs, retx = sent()
    assert (segs - segs0, retx - retx0) == (10377, 0)
    per = segs - segs0
    report = top_calls(tally, builtins, per, "segment")
    assert sum(tally.values()) / per <= FRAMES_PER_SEGMENT + 1.0, report
    # No generic min/max per segment and its ACK (2.00 each before).
    assert builtins["min"] + builtins["max"] == 0, report
