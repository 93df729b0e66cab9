"""The authoritative telemetry event catalog.

Every event kind the bus can carry is declared here with its payload
schema: the keys a producer *must* emit (``required``) and the keys it
*may* emit (``optional``).  This file — not the emit sites, not the
consumers — is the contract trace consumers program against; the
``event-schema`` checker in :mod:`repro.analysis` cross-checks every
``bus.emit`` site and every consumer key access against it, so adding,
renaming or dropping a payload key without updating the catalog fails
``repro-udt lint`` (and CI).

Workflow for changing an event payload:

1. Edit the spec here (move a key between ``required``/``optional``,
   add a new one, delete a dead one).
2. Update the emit site(s) and any consumer in ``repro/obs``.
3. ``repro-udt lint --rule event-schema`` must come back clean.

``virtual=True`` marks records that appear in traces but are not
produced through :meth:`repro.obs.bus.EventBus.emit` (the ``trace.meta``
header written by :class:`repro.obs.export.JsonlWriter`); the checker
skips the produced-site checks for those.  ``detail=True`` marks the
per-packet detail tier (see :mod:`repro.obs.bus`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

from repro.obs import bus as OB


@dataclass(frozen=True)
class EventSpec:
    """Payload contract for one event kind.

    Beyond the keys listed here every event record also carries the
    base envelope ``t`` / ``kind`` / ``src`` added by the bus and the
    JSONL writer; those are implicit and never declared per-kind.
    docs/OBSERVABILITY.md's event table gives each key's unit.
    """

    kind: str
    doc: str
    required: FrozenSet[str] = frozenset()
    optional: FrozenSet[str] = frozenset()
    detail: bool = False
    virtual: bool = False

    @property
    def keys(self) -> FrozenSet[str]:
        return self.required | self.optional


def _spec(
    kind: str,
    doc: str,
    required: str = "",
    optional: str = "",
    detail: bool = False,
    virtual: bool = False,
) -> EventSpec:
    return EventSpec(
        kind=kind,
        doc=doc,
        required=frozenset(required.split()) if required else frozenset(),
        optional=frozenset(optional.split()) if optional else frozenset(),
        detail=detail,
        virtual=virtual,
    )


#: kind -> spec.  Keep ordering grouped as in repro/obs/bus.py.
CATALOG: Dict[str, EventSpec] = {
    s.kind: s
    for s in (
        _spec(
            "trace.meta",
            "JSONL trace header written by JsonlWriter.write_meta",
            required="schema",
            optional="generator experiments packet_detail",
            virtual=True,
        ),
        _spec(
            OB.CONN_CONNECTED,
            "handshake completed (src = endpoint)",
            required="peer_seq flow_window initiator",
        ),
        _spec(
            OB.CONN_CLOSED,
            "endpoint closed (src = endpoint)",
            required="data_pkts_sent data_pkts_received",
        ),
        _spec(OB.SND_ACK, "sender processed an ACK", required="seq light"),
        _spec(
            OB.SND_NAK,
            "sender processed a NAK",
            required="lost ranges froze",
        ),
        _spec(
            OB.CC_SAMPLE,
            "congestion-control state snapshot after a CC update",
            required=(
                "trigger rate_bps period cwnd flow_window rtt bw_est "
                "recv_rate loss_len exp_count slow_start"
            ),
        ),
        _spec(
            OB.CC_SLOWSTART_EXIT,
            "controller left slow start",
            required="period window",
        ),
        _spec(
            OB.CC_DECREASE,
            "controller applied a multiplicative decrease",
            required="trigger",
            optional="period window",
        ),
        _spec(
            OB.CC_DELAY_WARNING,
            "obsolete delay-trend design fired an early decrease",
            required="period",
        ),
        _spec(
            OB.EXP_TIMEOUT,
            "EXP (no-feedback) timer fired with data in flight",
            required="exp_count unacked",
        ),
        _spec(
            OB.RCV_LOSS,
            "receiver detected a sequence hole",
            required="first last length",
        ),
        _spec(
            OB.RCV_BUFFER_DROP,
            "receive buffer refused a DATA packet",
            required="seq size",
        ),
        _spec(
            OB.LINK_DROP,
            "a link dropped a packet ('queue' at enqueue, 'loss' on the wire)",
            required="reason size flow uid seq",
            optional="qlen",
        ),
        _spec(
            OB.QUEUE_HIGHWATER,
            "egress queue reached a new occupancy high-water mark",
            required="pkts bytes",
        ),
        _spec(
            OB.CPU_CHARGE,
            "aggregated CPU cycle charges from a host meter",
            required="total_cycles util",
        ),
        _spec(
            OB.FLOW_DONE,
            "a finite simulated flow delivered its last byte",
            required="bytes elapsed",
        ),
        _spec(
            OB.FLUID_ENTER,
            "hybrid tier left the packet engine for an analytic fluid span",
            required="flows",
        ),
        _spec(
            OB.FLUID_EXIT,
            "hybrid tier re-entered the packet engine at a CC boundary",
            required="reason span ticks",
        ),
        _spec(
            OB.PKT_SND,
            "sender emitted a DATA packet",
            required="seq size retx",
            detail=True,
        ),
        _spec(
            OB.PKT_RCV,
            "receiver accepted a DATA packet",
            required="seq retx",
            detail=True,
        ),
        _spec(
            OB.LINK_ENQ,
            "a link accepted a packet for transmission (src = link name; "
            "uid = wire-packet id, unique per simulation)",
            required="uid flow seq qlen",
            detail=True,
        ),
        _spec(
            OB.LINK_DEQ,
            "a link finished serialising a packet (src = link name)",
            required="uid flow seq",
            detail=True,
        ),
    )
}

#: Envelope keys present on every JSONL event record (bus + writer).
BASE_KEYS = frozenset({"t", "kind", "src"})
