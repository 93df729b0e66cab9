"""The fluid-approximation tier of the hybrid simulator.

When every flow on a network is in steady bulk transfer, packet-level
simulation spends millions of events re-deriving what the UDT rate law
already states in closed form: each flow's rate follows the per-SYN
difference equation of §3.4 and nothing else happens until the aggregate
reaches link capacity.  :class:`FluidController` exploits that — it
detects the steady state, drains the pipe to a *quiescent* point (every
packet acknowledged, every loss repaired, every timer idle), then
advances virtual time analytically: per-SYN rate updates via
``cc.fluid_tick()``, delivered bytes integrated in closed form and
credited to the :class:`~repro.sim.monitor.FlowMonitor`, and a single
engine event at the span's end.  The packet engine resumes at the next
CC-relevant boundary:

* **capacity** — a link's aggregate fluid rate reached its service rate
  (the queue would start filling; queue growth and loss are deliberately
  packet-level),
* **boundary** — a registered source (e.g. an ON/OFF UDP blast) is about
  to change state,
* **horizon** — the ``run(until=...)`` limit,
* **max-span** — the configurable span cap.

Entry is conservative: any registered flow that is not fluid-eligible
(slow start, finite transfer, app-driven, TCP) blocks the whole tier,
and a *quiet check* verifies the event heap holds nothing but the
registered sources' own events before a span starts — any in-flight
packet or straggler timer aborts the attempt.  Sequence numbers do NOT
advance across a span; only monitor byte counters and CC rate state do
(see docs/SIMULATION.md for the full fidelity contract).

The controller is deterministic: no RNG, registration-order iteration,
and all its timer constants sit off the decimal grid so its events never
tie with protocol timers (the determinism sanitizer perturbs same-time
ordering).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.obs import bus as OB


class FluidController:
    """Per-network driver of the fluid tier (one per hybrid Network).

    Flow adapters (duck-typed; see ``_UdtFluidAdapter`` in
    :mod:`repro.udt.sim_adapter`) provide::

        eligible() -> bool      # steady bulk transfer, fluid-capable CC
        quiesced() -> bool      # nothing unacked, loss lists empty
        hold(flag)              # gate NEW data (retransmissions still flow)
        freeze() -> state       # cancel periodic timers, return restore info
        resume(state)           # re-arm timers / re-seed CC after a span
        rate_pps() -> float     # current analytic sending rate
        tick() -> float         # advance one SYN interval, return new rate
        links() -> [Link]       # data-direction path
        drain_delay() -> float  # time for in-flight control to settle
        credit(t0, t1, bytes)   # book analytically delivered bytes
        wire_bytes, syn         # per-packet wire size, SYN interval

    Known sources (ON/OFF generators) provide ``blocking()``,
    ``next_boundary()`` and ``pending_events()``; blockers are plain
    callables returning True while fluid entry must be vetoed.
    """

    # All intervals sit off the decimal float grid so controller events
    # never tie with protocol timers (SYN multiples, pacing periods).
    PROBE_INTERVAL = 0.0500000137
    POLL_INTERVAL = 0.0100000071
    BACKOFF = 0.2500000119
    QUIESCE_TIMEOUT = 4.0000000113  # per attempt, from hold to span entry
    #: Margin a span keeps clear of a source boundary so the resume event
    #: never ties with the source's own wake-up.
    BOUNDARY_MARGIN = 1.0000000211e-4
    #: Do not start an attempt with less than this much horizon left.
    MIN_HORIZON = 2.0
    #: A span must cover at least this many SYN ticks to be worth the
    #: quiesce/drain detour it costs.
    MIN_TICKS = 20
    #: Fraction of link capacity at which a span exits (queue onset).
    THETA = 1.0
    #: Ticks per monitor credit chunk (10 ticks of the 0.01 s SYN = one
    #: 0.1 s monitor bin).
    CHUNK_TICKS = 10
    #: Hard cap on analytic span length, in seconds.
    MAX_SPAN = 600.0
    #: Length of a *saturated* span (flows window-limited at capacity;
    #: rates credited as max-min shares, CC rate parameter held).  Spans
    #: are finite so flow joins and source boundaries are never starved
    #: of packet-level attention for long.
    SAT_SPAN = 4.0000000139
    #: Per-flow offset when resuming after a span/abort.  Re-arming every
    #: sender at the same instant would make their first post-span sends
    #: tie, and same-time ordering of causally unrelated events is
    #: exactly what the determinism sanitizer perturbs.
    RESUME_STAGGER = 1.0000000187e-6

    def __init__(self, net: object):
        self.net = net
        self.sim = net.sim  # type: ignore[attr-defined]
        self.bus = self.sim.bus
        self.flows: List[object] = []
        self.sources: List[object] = []
        self.blockers: List[Callable[[], bool]] = []
        self._event = None  # the single outstanding controller event
        self._horizon: Optional[float] = None
        self._deadline = 0.0
        self._entry_flows: List[object] = []
        self._frozen: List[Tuple[object, object]] = []
        # -- statistics (read by tests and the run summary) --------------
        self.spans = 0
        self.aborts = 0
        self.ticks = 0
        self.fluid_time = 0.0

    # -- registration ----------------------------------------------------
    def register_flow(self, adapter: object) -> None:
        self.flows.append(adapter)

    def register_source(self, source: object) -> None:
        self.sources.append(source)

    def register_blocker(self, active: Callable[[], bool]) -> None:
        self.blockers.append(active)

    # -- run hook --------------------------------------------------------
    def on_run(self, until: Optional[float]) -> None:
        """Called by ``Network.run`` before the engine runs.

        Records the horizon and arms the first probe.  Idempotent across
        back-to-back run segments: an already-armed controller only
        updates its horizon.
        """
        self._horizon = until
        if self._event is None and self.flows:
            self._schedule(self.sim.now + self.PROBE_INTERVAL, self._probe)

    # -- state machine ---------------------------------------------------
    def _schedule(self, t: float, fn: Callable[[], None]) -> None:
        if t < self.sim.now:
            t = self.sim.now
        self._event = self.sim.schedule_at(t, fn)

    def _reprobe(self, delay: float) -> None:
        self._schedule(self.sim.now + delay, self._probe)

    def _probe(self) -> None:
        self._event = None
        now = self.sim.now
        if self._horizon is None or self._horizon - now < self.MIN_HORIZON:
            return  # run is ending; stop probing (nothing re-armed)
        if not self._may_enter():
            self._reprobe(self.PROBE_INTERVAL)
            return
        # Quiesce: gate new data on every flow; recovery traffic still
        # flows, so loss lists drain and the pipe empties.
        self._entry_flows = list(self.flows)
        for f in self._entry_flows:
            f.hold(True)  # type: ignore[attr-defined]
        self._deadline = now + self.QUIESCE_TIMEOUT
        self._schedule(now + self.POLL_INTERVAL, self._poll)

    def _may_enter(self) -> bool:
        """Every flow steady and fluid-capable, no blockers, headroom left."""
        for active in self.blockers:
            if active():
                return False
        for s in self.sources:
            if s.blocking():  # type: ignore[attr-defined]
                return False
        if not self.flows:
            return False
        for f in self.flows:
            if not f.eligible():  # type: ignore[attr-defined]
                return False
        return True

    def _poll(self) -> None:
        self._event = None
        now = self.sim.now
        if now > self._deadline:
            self._abort()
            return
        if not all(f.quiesced() for f in self._entry_flows):  # type: ignore[attr-defined]
            self._schedule(now + self.POLL_INTERVAL, self._poll)
            return
        # Freeze periodic timers, then wait for in-flight control packets
        # (the tail of the ACK/ACK2 conversation) to settle before the
        # quiet check.
        self._frozen = [
            (f, f.freeze()) for f in self._entry_flows  # type: ignore[attr-defined]
        ]
        drain = max(
            f.drain_delay() for f in self._entry_flows  # type: ignore[attr-defined]
        )
        self._schedule(now + drain + self.POLL_INTERVAL, self._quiet_check)

    def _quiet_check(self) -> None:
        self._event = None
        now = self.sim.now
        expected = sum(
            s.pending_events() for s in self.sources  # type: ignore[attr-defined]
        )
        still = all(
            f.quiesced() for f in self._entry_flows  # type: ignore[attr-defined]
        )
        if not still or self.sim.pending() != expected:
            # A straggler (in-flight NAK, un-fired pacing post) surfaced.
            if now > self._deadline:
                self._abort()
            else:
                self._schedule(now + self.POLL_INTERVAL, self._quiet_check)
            return
        self._enter_span(now)

    def _release(self) -> None:
        """Resume frozen flows and release every hold, micro-staggered.

        The first flow wakes synchronously; each further one a
        :data:`RESUME_STAGGER` later (deterministic registration order),
        so no two senders re-arm their pacing at the same instant.
        """
        now = self.sim.now
        frozen = self._frozen
        self._frozen = []
        held = self._entry_flows
        self._entry_flows = []
        frozen_ids = {id(f) for f, _ in frozen}
        for f in held:
            if id(f) not in frozen_ids:
                f.hold(False)  # type: ignore[attr-defined]
        for i, (f, state) in enumerate(frozen):

            def _wake(f=f, state=state):
                f.resume(state)  # type: ignore[attr-defined]
                f.hold(False)  # type: ignore[attr-defined]

            if i == 0:
                _wake()
            else:
                self.sim.post_at(now + i * self.RESUME_STAGGER, _wake)

    def _abort(self) -> None:
        """Resume everything and back off; the attempt found no quiet point."""
        self._release()
        self.aborts += 1
        self._reprobe(self.BACKOFF)

    # -- the analytic span ----------------------------------------------
    def _span_bound(self, t0: float) -> Tuple[float, str]:
        """Latest admissible span end and the reason that bounds it."""
        t_end, reason = t0 + self.MAX_SPAN, "max-span"
        if self._horizon is not None and self._horizon < t_end:
            t_end, reason = self._horizon, "horizon"
        for s in self.sources:
            b = s.next_boundary()  # type: ignore[attr-defined]
            if b is not None and b - self.BOUNDARY_MARGIN < t_end:
                t_end, reason = b - self.BOUNDARY_MARGIN, "boundary"
        return t_end, reason

    @staticmethod
    def _maxmin_shares(
        demands: List[float], members: List[List[int]], capacity: List[float]
    ) -> List[float]:
        """Demand-capped max-min fair allocation over shared links.

        Progressive filling: raise every unfixed flow's share in lockstep
        until a link saturates (its members are fixed at the bottleneck
        fair share) or a flow reaches its demand.  ``demands`` and the
        returned shares are in the same unit as ``capacity`` (bits/s of
        wire occupancy).
        """
        n = len(demands)
        share = [0.0] * n
        active = [True] * n
        cap = list(capacity)
        for _ in range(n + len(cap) + 1):
            counts = [sum(1 for i in mem if active[i]) for mem in members]
            inc = None
            for j, c in enumerate(counts):
                if c:
                    v = cap[j] / c
                    if inc is None or v < inc:
                        inc = v
            if inc is None:
                break
            for i in range(n):
                if active[i]:
                    v = demands[i] - share[i]
                    if v < inc:
                        inc = v
            if inc > 0.0:
                for i in range(n):
                    if active[i]:
                        share[i] += inc
                for j, c in enumerate(counts):
                    cap[j] -= inc * c
            # Fix demand-met flows and every flow on an exhausted link.
            for i in range(n):
                if active[i] and demands[i] - share[i] <= 1e-9 * demands[i]:
                    active[i] = False
            for j, mem in enumerate(members):
                if counts[j] and cap[j] <= 1e-9 * capacity[j]:
                    for i in mem:
                        active[i] = False
            if not any(active):
                break
        return share

    def _enter_span(self, t0: float) -> None:
        flows = self._entry_flows
        syn = min(f.syn for f in flows)  # type: ignore[attr-defined]
        t_max, bound_reason = self._span_bound(t0)
        if t_max - t0 < self.MIN_TICKS * syn:
            self._abort()
            return
        rates = [f.rate_pps() for f in flows]  # type: ignore[attr-defined]
        # Static path/link tables for the analytic phase.
        wire_bits = [8.0 * f.wire_bytes for f in flows]  # type: ignore[attr-defined]
        links: List[object] = []
        members: List[List[int]] = []  # per link: indices of crossing flows
        index: dict = {}
        for i, f in enumerate(flows):
            for link in f.links():  # type: ignore[attr-defined]
                j = index.get(link)
                if j is None:
                    j = index[link] = len(links)
                    links.append(link)
                    members.append([])
                members[j].append(i)
        capacity = [self.THETA * link.rate_bps for link in links]  # type: ignore[attr-defined]

        def saturated(r: List[float]) -> bool:
            for j, mem in enumerate(members):
                load = 0.0
                for i in mem:
                    load += r[i] * wire_bits[i]
                if load >= capacity[j]:
                    return True
            return False

        # -- phase 1: ramp.  While the aggregate is under capacity the
        # rates evolve by the per-SYN difference equation (§3.4) and
        # delivery equals the sending rate.  Capacity is tested BEFORE
        # crediting a tick, so the ramp ends exactly at the onset of
        # saturation with queues still empty.
        nflows = len(flows)
        n_max = int((t_max - t0) / syn)
        accum = [0.0] * nflows  # payload bytes owed since last flush
        chunk_start = t0
        ticks = 0
        reason = bound_reason
        at_capacity = saturated(rates)
        while not at_capacity and ticks < n_max:
            new_rates = [f.tick() for f in flows]  # type: ignore[attr-defined]
            if saturated(new_rates):
                at_capacity = True
                break
            rates = new_rates
            for i, f in enumerate(flows):
                accum[i] += rates[i] * syn * f.payload_bytes  # type: ignore[attr-defined]
            ticks += 1
            if ticks % self.CHUNK_TICKS == 0:
                t_chunk = t0 + ticks * syn
                for i, f in enumerate(flows):
                    f.credit(chunk_start, t_chunk, accum[i])  # type: ignore[attr-defined]
                    accum[i] = 0.0
                chunk_start = t_chunk
        t_ramp_end = t0 + ticks * syn
        for i, f in enumerate(flows):
            if accum[i] > 0.0:
                f.credit(chunk_start, t_ramp_end, accum[i])  # type: ignore[attr-defined]
                accum[i] = 0.0

        # -- phase 2: saturated.  Flows are window-limited at capacity
        # (the CC rate parameter legitimately floats above the link rate
        # while flow control binds, §3.2): delivery is the max-min fair
        # share of each link, integrated in closed form with the rate
        # parameter held.  Finite length so boundaries stay fresh.
        span_end = t_ramp_end
        if at_capacity:
            # Long-RTT flows pay seconds of drain per quiesce; stretch the
            # span so the packet-level detour stays a small duty fraction.
            drain = max(
                f.drain_delay() for f in flows  # type: ignore[attr-defined]
            )
            sat_len = max(self.SAT_SPAN, 8.0 * drain)
            sat_end = min(t_max, t_ramp_end + sat_len)
            if sat_end - t_ramp_end > self.MIN_TICKS * syn:
                demands = [rates[i] * wire_bits[i] for i in range(nflows)]
                shares = self._maxmin_shares(demands, members, capacity)
                dt = sat_end - t_ramp_end
                for i, f in enumerate(flows):
                    payload_rate = (
                        shares[i]
                        / wire_bits[i]
                        * f.payload_bytes  # type: ignore[attr-defined]
                    )
                    f.credit(  # type: ignore[attr-defined]
                        t_ramp_end, sat_end, payload_rate * dt
                    )
                span_end = sat_end
                reason = "saturated" if sat_end < t_max else bound_reason
            elif ticks < self.MIN_TICKS:
                # Immediately saturated and no room for a useful span.
                self._abort()
                return
        elif ticks < self.MIN_TICKS:
            self._abort()
            return

        bus = self.bus
        if bus.enabled:
            bus.emit(OB.FLUID_ENTER, t0, "fluid", flows=nflows)
        self._span_ticks = ticks
        self._span_reason = reason
        self._span_start = t0
        self._schedule(span_end, self._on_span_end)

    def _on_span_end(self) -> None:
        self._event = None
        now = self.sim.now
        self._release()
        span = now - self._span_start
        self.spans += 1
        self.ticks += self._span_ticks
        self.fluid_time += span
        bus = self.bus
        if bus.enabled:
            bus.emit(
                OB.FLUID_EXIT,
                now,
                "fluid",
                reason=self._span_reason,
                span=span,
                ticks=self._span_ticks,
            )
        self._reprobe(self.PROBE_INTERVAL)
