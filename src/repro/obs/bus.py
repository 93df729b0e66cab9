"""The telemetry event bus.

A bus is a list of subscribers plus one ``enabled`` boolean maintained as
``bool(subscribers)``.  Instrumented code guards every emit site with::

    bus = self.bus
    if bus.enabled:
        bus.emit(KIND, t, src, field=value, ...)

so the disabled path costs one attribute load and a branch — no event
object, no keyword dict, no call.  That is what makes it safe to leave
the instrumentation compiled into the protocol hot paths (the Narses
lesson: telemetry nobody can afford to turn on never gets used).

Events are typed by dotted-string kind (constants below), timestamped in
the emitting component's virtual time, and carry a ``src`` naming the
emitting component (a connection endpoint, a link, a meter).  Subscribers
may filter by kind at subscription time; filtering happens inside
:meth:`EventBus.emit` so uninterested subscribers never run.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional

#: Version of the flat record layout (:meth:`Event.to_dict`), stamped into
#: every trace's ``trace.meta`` header by both trace writers.
SCHEMA_VERSION = 1

# ---------------------------------------------------------------------------
# Event taxonomy.  The authoritative payload schema (required / optional
# keys) is repro/obs/catalog.py, which the ``event-schema`` lint rule
# enforces; constants here keep emit sites typo-proof.
# ---------------------------------------------------------------------------
#: Handshake completed (src = endpoint).
CONN_CONNECTED = "conn.connected"
#: Endpoint closed (src = endpoint).
CONN_CLOSED = "conn.closed"
#: Sender processed an ACK.
SND_ACK = "snd.ack"
#: Sender processed a NAK.
SND_NAK = "snd.nak"
#: Congestion-control state snapshot after a CC update (the timeline
#: sample).
CC_SAMPLE = "cc.sample"
#: Controller left slow start.
CC_SLOWSTART_EXIT = "cc.slowstart_exit"
#: Controller applied a multiplicative decrease.
CC_DECREASE = "cc.decrease"
#: Obsolete delay-trend design fired an early decrease.
CC_DELAY_WARNING = "cc.delay_warning"
#: EXP (no-feedback) timer fired with data in flight.
EXP_TIMEOUT = "exp.timeout"
#: Receiver detected a sequence hole.
RCV_LOSS = "rcv.loss"
#: Receive buffer refused a DATA packet (drop invisible to the network —
#: the peer sees it as loss).
RCV_BUFFER_DROP = "rcv.buffer_drop"
#: A link dropped a packet (queue overflow or random loss).
LINK_DROP = "link.drop"
#: A link's egress queue reached a new occupancy high-water mark.
QUEUE_HIGHWATER = "queue.highwater"
#: Aggregated CPU cycle charges from a host meter.
CPU_CHARGE = "cpu.charge"
#: A finite simulated flow delivered its last byte.
FLOW_DONE = "flow.done"
#: Hybrid tier left the packet engine for an analytic fluid span
#: (src = "fluid").
FLUID_ENTER = "fluid.enter"
#: Hybrid tier re-entered the packet engine (src = "fluid").
FLUID_EXIT = "fluid.exit"

# -- packet-level detail tier ----------------------------------------------
# One event per data packet / per link hop: orders of magnitude more
# volume than the control-path kinds above, so emit sites guard on
# ``bus.detail`` (set only when a subscriber passes ``detail=True``) and
# a plain ``--trace`` stays cheap.  These are what the span reconstructor
# (repro.obs.spans) rebuilds packet lifecycles from.
#: Sender emitted a DATA packet (src = endpoint).
PKT_SND = "pkt.snd"
#: Receiver accepted a DATA packet (src = endpoint).
PKT_RCV = "pkt.rcv"
#: A link accepted a packet for transmission (src = link name).
LINK_ENQ = "link.enq"
#: A link finished serialising a packet (src = link name).
LINK_DEQ = "link.deq"


class Event:
    """One telemetry event: ``(t, kind, src)`` plus free-form fields."""

    __slots__ = ("t", "kind", "src", "fields")

    def __init__(self, t: float, kind: str, src: str, fields: Dict[str, Any]):
        self.t = t
        self.kind = kind
        self.src = src
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Flat dict form — the JSONL record layout."""
        d = {"t": self.t, "kind": self.kind, "src": self.src}
        d.update(self.fields)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Event {self.kind} t={self.t:.6f} src={self.src} {self.fields}>"


class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; pass to unsubscribe."""

    __slots__ = ("fn", "kinds", "detail")

    def __init__(
        self,
        fn: Callable[[Event], None],
        kinds: Optional[frozenset],
        detail: bool = False,
    ):
        self.fn = fn
        self.kinds = kinds
        self.detail = detail


class EventBus:
    """Synchronous publish/subscribe fan-out with an O(1) disabled path."""

    __slots__ = ("enabled", "detail", "_subs")

    def __init__(self) -> None:
        #: True iff at least one subscriber is attached.  Emit sites MUST
        #: check this before building event fields.
        self.enabled = False
        #: True iff at least one subscriber asked for the packet-level
        #: detail tier (``pkt.*`` / ``link.enq`` / ``link.deq``).  Those
        #: emit sites guard on this instead of ``enabled`` so ordinary
        #: traces never pay per-data-packet event construction.
        self.detail = False
        self._subs: List[Subscription] = []

    # -- subscription ----------------------------------------------------
    def subscribe(
        self,
        fn: Callable[[Event], None],
        kinds: Optional[Iterable[str]] = None,
        detail: bool = False,
    ) -> Subscription:
        """Attach ``fn``; it receives every event (or only ``kinds``).

        ``detail=True`` additionally wakes the packet-level emit sites;
        without it they stay dormant even while the bus is enabled.
        """
        sub = Subscription(fn, frozenset(kinds) if kinds is not None else None, detail)
        self._subs.append(sub)
        self.enabled = True
        if detail:
            self.detail = True
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Detach a subscription (no-op if already detached)."""
        self._subs = [s for s in self._subs if s is not sub]
        self.enabled = bool(self._subs)
        self.detail = any(s.detail for s in self._subs)

    @property
    def subscriber_count(self) -> int:
        return len(self._subs)

    # -- emission --------------------------------------------------------
    def emit(self, kind: str, t: float, src: str, **fields: Any) -> Optional[Event]:
        """Deliver one event to every matching subscriber.

        Callers should only reach this when :attr:`enabled` is True, but
        emitting on a disabled bus is harmless (returns None).
        """
        if not self._subs:
            return None
        ev = Event(t, kind, src, fields)
        for sub in self._subs:
            if sub.kinds is None or kind in sub.kinds:
                sub.fn(ev)
        return ev


#: The process-wide bus components fall back to when none is passed in.
_DEFAULT_BUS = EventBus()


def default_bus() -> EventBus:
    """The shared default bus (disabled until someone subscribes)."""
    return _DEFAULT_BUS
