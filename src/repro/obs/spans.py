"""Packet-lifecycle span reconstruction from JSONL traces.

Rebuilds, from a trace written with the packet-level detail tier
(``--trace ... --trace-packets``), the full lifecycle of every data
packet: sent → queued → delivered / dropped → ACKed / reported lost →
retransmitted.  The result answers the loss-forensics questions the UDT
paper's appendix machinery (loss lists, NAK compression) exists to
handle: *why* was a packet retransmitted, *where* was it dropped, *how
long* did it sit in a queue.

The reconstruction keys on three correlators already present in the
trace:

* ``seq`` — the transport sequence number (``pkt.snd`` / ``pkt.rcv`` /
  ``link.*`` events carry it for data packets);
* ``uid`` — the wire-packet id, unique per simulation, used to pair each
  link's enqueue with its dequeue for time-in-queue;
* ``flow`` — the connection's flow id stamped on wire packets, matching
  the ``<flow>-snd`` / ``<flow>-rcv`` endpoint ``src`` names.

ACKs are cumulative (``snd.ack`` seq acknowledges everything earlier),
so span completion uses the same circular-sequence comparison as the
protocol itself.  A trace without the detail tier still yields drop
forensics (``link.drop`` events carry uid/seq), just no spans or
queue-wait distributions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

# repro.udt.seqno is imported lazily (SpanBuilder.__init__): repro.obs
# must stay importable from inside repro.udt/repro.sim module bodies.
_seq_cmp: Optional[Callable[[int, int], int]] = None
_seq_inc: Optional[Callable[[int], int]] = None


def _seq_fns() -> Tuple[Callable[[int, int], int], Callable[[int], int]]:
    global _seq_cmp, _seq_inc
    if _seq_cmp is None:
        from repro.udt.seqno import seq_cmp, seq_inc

        _seq_cmp, _seq_inc = seq_cmp, seq_inc
    return _seq_cmp, _seq_inc

#: Trace kinds the builder consumes; everything else is ignored.
_CONSUMED = frozenset(
    [
        "trace.meta",
        "pkt.snd",
        "pkt.rcv",
        "snd.ack",
        "snd.nak",
        "rcv.loss",
        "rcv.buffer_drop",
        "exp.timeout",
        "link.enq",
        "link.deq",
        "link.drop",
        "flow.done",
    ]
)


def _percentile(sorted_vals: List[float], q: float) -> float:
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(round(q / 100.0 * (len(sorted_vals) - 1)))))
    return sorted_vals[idx]


class PacketSpan:
    """Lifecycle of one transport sequence number on one connection."""

    __slots__ = ("seq", "sends", "recv_t", "acked_t", "nak_count", "drops", "buffer_drop_t")

    def __init__(self, seq: int):
        self.seq = seq
        #: every transmission: (t, retransmission?)
        self.sends: List[Tuple[float, bool]] = []
        self.recv_t: Optional[float] = None  # first receiver acceptance
        self.acked_t: Optional[float] = None  # cumulatively ACKed at sender
        self.nak_count = 0  # times inside a receiver-detected hole
        #: wire drops attributed to this seq: (t, link, reason)
        self.drops: List[Tuple[float, str, str]] = []
        self.buffer_drop_t: Optional[float] = None

    @property
    def first_sent(self) -> Optional[float]:
        return self.sends[0][0] if self.sends else None

    @property
    def transmissions(self) -> int:
        return len(self.sends)

    @property
    def retransmissions(self) -> int:
        return sum(1 for _, retx in self.sends if retx)

    @property
    def delivered(self) -> bool:
        return self.recv_t is not None

    @property
    def state(self) -> str:
        """Final disposition: acked > delivered > dropped > in_flight."""
        if self.acked_t is not None:
            return "acked"
        if self.recv_t is not None:
            return "delivered"
        if self.drops or self.buffer_drop_t is not None:
            return "dropped"
        return "in_flight"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketSpan seq={self.seq} sends={self.transmissions} "
            f"naks={self.nak_count} drops={len(self.drops)} {self.state}>"
        )


class SpanSet:
    """All reconstructed spans plus link-level forensics aggregates."""

    def __init__(self) -> None:
        self.meta: Optional[Dict[str, Any]] = None
        #: conn id -> seq -> span
        self.spans: Dict[str, Dict[int, PacketSpan]] = defaultdict(dict)
        #: (link, flow-str) -> queue waits in seconds (enq->deq pairing)
        self.queue_waits: Dict[Tuple[str, str], List[float]] = defaultdict(list)
        #: (flow-str, link, reason) -> dropped wire packets
        self.drop_counts: Counter = Counter()
        #: same, for packets with no seq (control traffic)
        self.ctrl_drop_counts: Counter = Counter()
        #: conn -> sizes of receiver-detected loss events (rcv.loss)
        self.loss_events: Dict[str, List[int]] = defaultdict(list)
        #: conn -> receiver-buffer drops
        self.buffer_drops: Counter = Counter()
        #: conn -> (naks received at sender, packets reported lost)
        self.nak_counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: conn -> EXP timeouts at the sender
        self.exp_timeouts: Counter = Counter()
        #: flow-str -> completion record from flow.done
        self.flow_done: Dict[str, Dict[str, Any]] = {}
        self.events_consumed = 0
        self.t_max = 0.0

    def connections(self) -> List[str]:
        """Connections seen, including drop-only attributions."""
        conns = set(self.spans)
        conns.update(flow for flow, _, _ in self.drop_counts)
        conns.update(self.loss_events)
        return sorted(conns)

    # -- aggregates ------------------------------------------------------
    def forensics(self, conn: str) -> Dict[str, Any]:
        """Loss-forensics summary for one connection."""
        spans = self.spans.get(conn, {})
        chains: Counter = Counter()
        delivered = acked = dropped_wire = in_flight = naked = 0
        transmissions = retransmissions = 0
        for span in spans.values():
            chains[span.transmissions] += 1
            transmissions += span.transmissions
            retransmissions += span.retransmissions
            if span.nak_count:
                naked += 1
            st = span.state
            if st == "acked":
                acked += 1
                delivered += span.delivered
            elif st == "delivered":
                delivered += 1
            elif st == "dropped":
                dropped_wire += 1
            else:
                in_flight += 1
        drops_by_link: Dict[str, Dict[str, int]] = defaultdict(dict)
        for (flow, link, reason), n in sorted(self.drop_counts.items()):
            if flow == conn:
                drops_by_link[link][reason] = drops_by_link[link].get(reason, 0) + n
        queue_wait: Dict[str, Dict[str, float]] = {}
        for (link, flow), waits in sorted(self.queue_waits.items()):
            if flow != conn or not waits:
                continue
            s = sorted(waits)
            queue_wait[link] = {
                "count": len(s),
                "p50": _percentile(s, 50),
                "p90": _percentile(s, 90),
                "p99": _percentile(s, 99),
                "max": s[-1],
            }
        losses = self.loss_events.get(conn, [])
        naks = self.nak_counts.get(conn, [0, 0])
        return {
            "conn": conn,
            "pkts_sent": len(spans),
            "transmissions": transmissions,
            "retransmissions": retransmissions,
            "delivered": delivered,
            "acked": acked,
            "dropped": dropped_wire,
            "in_flight_at_end": in_flight,
            "naked_pkts": naked,
            "chains": {str(k): v for k, v in sorted(chains.items())},
            "max_chain": max(chains) if chains else 0,
            "drops_by_link": {k: dict(v) for k, v in drops_by_link.items()},
            "buffer_drops": int(self.buffer_drops.get(conn, 0)),
            "queue_wait": queue_wait,
            "loss_events": {
                "count": len(losses),
                "min": min(losses) if losses else 0,
                "mean": sum(losses) / len(losses) if losses else 0.0,
                "max": max(losses) if losses else 0,
            },
            "naks": {"received": naks[0], "pkts_reported": naks[1]},
            "exp_timeouts": int(self.exp_timeouts.get(conn, 0)),
        }

    def total_drops(self) -> Dict[str, Dict[str, int]]:
        """All wire drops (data + control) by link then cause."""
        out: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for counter in (self.drop_counts, self.ctrl_drop_counts):
            for (_flow, link, reason), n in counter.items():
                out[link][reason] += n
        return {k: dict(v) for k, v in sorted(out.items())}


class SpanBuilder:
    """Streaming reconstructor: feed trace events in time order."""

    def __init__(self) -> None:
        self.result = SpanSet()
        self._seq_cmp, self._seq_inc = _seq_fns()
        # per-conn first-send order + cumulative-ACK pointer
        self._order: Dict[str, List[int]] = defaultdict(list)
        self._ack_ptr: Dict[str, int] = defaultdict(int)
        # (link, uid) -> enqueue time, for queue-wait pairing
        self._pending_enq: Dict[Tuple[str, int], Tuple[float, str]] = {}

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _conn_of(src: str) -> str:
        for suffix in ("-snd", "-rcv"):
            if src.endswith(suffix):
                return src[: -len(suffix)]
        return src

    def _span(self, conn: str, seq: int) -> PacketSpan:
        spans = self.result.spans[conn]
        span = spans.get(seq)
        if span is None:
            span = spans[seq] = PacketSpan(seq)
            self._order[conn].append(seq)
        return span

    # -- event intake ----------------------------------------------------
    def feed(self, rec: Dict[str, Any]) -> None:
        kind = rec.get("kind")
        if kind not in _CONSUMED:
            return
        if kind == "trace.meta":
            self.result.meta = rec
            return
        res = self.result
        res.events_consumed += 1
        t = float(rec.get("t", 0.0))
        if t > res.t_max:
            res.t_max = t
        src = rec.get("src", "")
        if kind == "pkt.snd":
            conn = self._conn_of(src)
            self._span(conn, rec["seq"]).sends.append((t, bool(rec.get("retx"))))
        elif kind == "pkt.rcv":
            conn = self._conn_of(src)
            span = res.spans.get(conn, {}).get(rec["seq"])
            if span is not None and span.recv_t is None:
                span.recv_t = t
        elif kind == "snd.ack":
            conn = self._conn_of(src)
            ack_seq = rec.get("seq")
            if ack_seq is None:
                return
            order = self._order[conn]
            spans = res.spans[conn]
            i = self._ack_ptr[conn]
            seq_cmp = self._seq_cmp
            while i < len(order) and seq_cmp(order[i], ack_seq) < 0:
                span = spans[order[i]]
                if span.acked_t is None:
                    span.acked_t = t
                i += 1
            self._ack_ptr[conn] = i
        elif kind == "snd.nak":
            conn = self._conn_of(src)
            counts = res.nak_counts[conn]
            counts[0] += 1
            counts[1] += int(rec.get("lost", 0))
        elif kind == "rcv.loss":
            conn = self._conn_of(src)
            res.loss_events[conn].append(int(rec.get("length", 0)))
            first, last = rec.get("first"), rec.get("last")
            if first is None or last is None:
                return
            spans = res.spans.get(conn, {})
            seq_cmp, seq_inc = self._seq_cmp, self._seq_inc
            seq = first
            while True:
                span = spans.get(seq)
                if span is not None:
                    span.nak_count += 1
                if seq_cmp(seq, last) >= 0:
                    break
                seq = seq_inc(seq)
        elif kind == "rcv.buffer_drop":
            conn = self._conn_of(src)
            res.buffer_drops[conn] += 1
            span = res.spans.get(conn, {}).get(rec.get("seq"))
            if span is not None and span.buffer_drop_t is None:
                span.buffer_drop_t = t
        elif kind == "exp.timeout":
            res.exp_timeouts[self._conn_of(src)] += 1
        elif kind == "link.enq":
            uid = rec.get("uid")
            if uid is not None:
                self._pending_enq[(src, uid)] = (t, str(rec.get("flow")))
        elif kind == "link.deq":
            uid = rec.get("uid")
            entry = self._pending_enq.pop((src, uid), None)
            if entry is not None:
                enq_t, flow = entry
                res.queue_waits[(src, flow)].append(t - enq_t)
        elif kind == "link.drop":
            flow = str(rec.get("flow"))
            reason = rec.get("reason", "?")
            seq = rec.get("seq")
            uid = rec.get("uid")
            if uid is not None:
                self._pending_enq.pop((src, uid), None)
            if seq is None:
                res.ctrl_drop_counts[(flow, src, reason)] += 1
                return
            res.drop_counts[(flow, src, reason)] += 1
            span = res.spans.get(flow, {}).get(seq)
            if span is not None:
                span.drops.append((t, src, reason))
        elif kind == "flow.done":
            res.flow_done[src] = {
                "t": t,
                "bytes": rec.get("bytes"),
                "elapsed": rec.get("elapsed"),
            }

    def feed_many(self, events: Iterable[Dict[str, Any]]) -> "SpanBuilder":
        for rec in events:
            self.feed(rec)
        return self

    def build(self) -> SpanSet:
        return self.result


def build_spans(path: str, **read_kw: Any) -> SpanSet:
    """Reconstruct spans straight from a JSONL trace file."""
    from repro.obs.export import read_events

    read_kw.setdefault("include_meta", True)
    return SpanBuilder().feed_many(read_events(path, **read_kw)).build()
