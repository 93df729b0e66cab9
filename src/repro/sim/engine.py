"""Discrete-event engine.

A single-threaded event loop over a binary heap.  Events scheduled for the
same instant fire in FIFO order (a monotone tie-break counter guarantees
determinism), which the protocol agents rely on — e.g. an ACK that arrives
at the same instant a retransmission timer expires must be processed first
if it was scheduled first.  The tie-break order is perturbable
(``tie_break="lifo"``) so the determinism sanitizer can verify that
*causally unrelated* same-time events commute.

The engine is the hot path of every experiment, so the inner loop avoids
attribute lookups and allocates nothing beyond the events themselves.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from math import inf
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.bus import EventBus

#: Same-instant tie-break orders.  "fifo" (the default, and the property
#: agents may rely on) fires equal-time events in scheduling order;
#: "lifo" reverses it.  LIFO exists for the determinism sanitizer
#: (repro.analysis.sanitizer), which runs an experiment under both
#: orders: any outcome difference means some component depends on the
#: incidental interleaving of *causally unrelated* same-time events.
TIE_BREAKS = ("fifo", "lifo")


def format_vtime(t: float) -> str:
    """Render a virtual timestamp for human-facing output.

    Sub-millisecond times keep microsecond resolution; everything else
    prints as seconds with millisecond resolution.  Shared by the report
    renderer and :meth:`Simulator.now_str`.
    """
    if t != t:  # NaN
        return "?"
    if abs(t) < 1.0:
        return f"{t*1e3:.3f}ms"
    return f"{t:.3f}s"


class Event:
    """A scheduled callback.  ``cancel()`` marks it dead in O(1)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        # Drop references so cancelled events pinned in the heap do not
        # keep packets/agents alive.
        self.fn = None
        self.args = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        # Must never raise: cancelled events have fn/args cleared, and
        # debuggers repr() whatever is left in the heap.
        try:
            t = f"{self.time:.6f}"
        except (TypeError, ValueError):
            t = repr(self.time)
        if self.cancelled:
            return f"<Event t={t} seq={self.seq} cancelled>"
        fn = self.fn
        name = getattr(fn, "__qualname__", None) or getattr(fn, "__name__", None)
        if name is None:
            name = type(fn).__name__ if fn is not None else "?"
        return f"<Event t={t} seq={self.seq} pending {name}>"


class RunObserver:
    """The engine's one seam for tooling: registered, never patched in.

    Experiments construct their own simulators, so observers register
    process-wide (:func:`add_run_observer`) and every :meth:`Simulator.run`
    call reports to them — at its start and at its end, never per event.
    Between the two an observer (or a thread it owns) may read the
    simulator's ``now`` and ``events_processed``, both written per event.
    Several observers may be registered at once and leave in any order.
    """

    def run_begin(
        self, sim: "Simulator", until: Optional[float]
    ) -> Optional[Dict[Any, List]]:
        """``sim.run(until)`` is starting.

        Return a dict to have this run's handlers timed into it (see
        :meth:`Simulator.run`), ``None`` to leave the run untimed.
        """
        return None

    def run_end(self, sim: "Simulator", until: Optional[float]) -> None:
        """``sim.run(until)`` is returning (also when a handler raised)."""


_run_observers: List[RunObserver] = []


def add_run_observer(observer: RunObserver) -> None:
    """Register ``observer`` for every run that starts from now on."""
    _run_observers.append(observer)


def remove_run_observer(observer: RunObserver) -> None:
    """Unregister ``observer`` (no-op if it is not registered)."""
    if observer in _run_observers:
        _run_observers.remove(observer)


def run_observers() -> Tuple[RunObserver, ...]:
    """The registered observers, in registration order."""
    return tuple(_run_observers)


class Simulator:
    """Virtual-time event loop.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned :class:`random.Random`.  All random
        behaviour in the substrate (BER loss, RED drops, jittered app
        starts) draws from this stream, so a run is reproducible from its
        seed alone.
    tie_break:
        Order for events scheduled at the same instant: ``"fifo"``
        (default) or ``"lifo"`` (reversed; used by the determinism
        sanitizer to flush out hidden ordering dependence).
    """

    def __init__(self, seed: Optional[int] = 0, tie_break: str = "fifo"):
        if tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}")
        self.now: float = 0.0
        self.tie_break = tie_break
        # Heap entries come in three shapes, distinguished by length:
        #   (time, seq, Event)             — cancellable, schedule()/schedule_at()
        #   (time, seq, fn, args)          — fire-and-forget, post()/post_at()
        #   (time, seq, fn, args, stream)  — the head of a FIFO stream, post_fifo()
        # Ordering never has to look past (time, seq) — seq is unique — so
        # comparisons stay in C for all of them.
        self._heap: list[tuple] = []
        # FIFO streams handed out by fifo_stream().  A stream is a deque
        # of its undispatched entries, oldest first; it is non-empty
        # exactly while its head — the same tuple — sits in the heap.
        self._streams: List[deque] = []
        # The tie-break key: FIFO counts up, LIFO counts down so that
        # equal-time events pop in reverse scheduling order.
        self._counter = itertools.count(0, 1 if tie_break == "fifo" else -1)
        self._running = False
        self.rng = random.Random(seed)
        #: Wire-packet uids: whoever puts a packet on the wire draws one.
        self.packet_uids = itertools.count()
        self.events_processed = 0
        #: The telemetry bus every component built on this simulator emits on.
        self.bus = EventBus()

    # -- scheduling ----------------------------------------------------
    def schedule(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = next(self._counter)
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def schedule_at(self, time: float, fn: Callable, *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
        seq = next(self._counter)
        ev = Event(time, seq, fn, args)
        heapq.heappush(self._heap, (time, seq, ev))
        return ev

    def post(self, delay: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event`, no cancel.

        The hot path for the millions of per-packet events (link
        serialisation done, propagation arrival) that are never cancelled:
        it skips the Event allocation entirely, which is a measurable
        share of a long run's wall clock.  Ordering is identical to
        ``schedule`` — both draw from the same tie-break counter.
        """
        heapq.heappush(
            self._heap,
            (self.now + delay, next(self._counter), fn, args),
        )

    def post_at(self, time: float, fn: Callable, *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        if time < self.now:
            raise ValueError(f"cannot schedule into the past: {time} < {self.now}")
        heapq.heappush(self._heap, (time, next(self._counter), fn, args))

    def fifo_stream(self) -> deque:
        """A new stream for :meth:`post_fifo`; its owner only passes it back."""
        stream: deque = deque()
        self._streams.append(stream)
        return stream

    def post_fifo(self, stream: deque, delay: float, fn: Callable, *args: Any) -> None:
        """:meth:`post` for a source whose entries fire in posting order.

        A link delivers in the order it serialised, so of all its packets
        in flight only the next to arrive has to compete in the heap: the
        rest wait in ``stream`` (from :meth:`fifo_stream`) and the
        dispatch loop promotes one when it pops its predecessor — a k-way
        merge of sorted streams.  Every entry carries exactly the
        ``(time, seq)`` key ``post`` would have pushed, drawn from the
        same counter at the same moment, so dispatch order is that of
        ``post`` under either tie-break; the heap is as deep as there are
        sources, not packets in flight.

        Fails closed: an entry that would not fire *strictly after* the
        stream's tail goes on the heap alone, as ``post`` would have put
        it (strictly, because under the LIFO tie-break a same-instant
        entry fires *before* the one posted ahead of it).
        """
        time = self.now + delay
        seq = next(self._counter)
        if not stream:
            entry = (time, seq, fn, args, stream)
            stream.append(entry)
            heapq.heappush(self._heap, entry)
        elif time > stream[-1][0]:
            stream.append((time, seq, fn, args, stream))
        else:
            heapq.heappush(self._heap, (time, seq, fn, args))

    # -- execution -----------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or virtual time reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run``
        segments observe a continuous clock.  A run cut short by
        :meth:`stop` leaves the clock at the stopping event: entries
        before ``until`` may still be queued, and the next segment must
        not find them in its past.

        This is the engine's only dispatch loop.  Registered
        :class:`RunObserver` objects are consulted here, once per call;
        when one of them hands back an accumulator every handler is
        timed into it (``fn -> [count, seconds]``, :class:`Timer` ticks
        charged to the wrapped callback, not to ``Timer._fire``) — one
        ``acc is None`` test per event otherwise.  ``events_processed``
        is written per event, so another thread may sample it mid-run.
        A stream head (:meth:`post_fifo`) hands its heap slot to the
        stream's next entry *before* its handler runs, so ``until``,
        :meth:`stop` and a raising handler all leave every non-empty
        stream with its head in the heap.
        """
        heap = self._heap
        pop = heapq.heappop
        replace = heapq.heapreplace
        timer_fire = Timer._fire
        limit = inf if until is None else until
        observers = run_observers()
        acc: Optional[Dict[Any, List]] = None
        for ob in observers:
            got = ob.run_begin(self, until)
            if got is not None:
                acc = got
        processed = self.events_processed
        self._running = True
        try:
            while heap and self._running:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                shape = len(entry)
                if shape == 5:  # stream head: its successor takes its place
                    stream = entry[4]
                    stream.popleft()
                    if stream:
                        replace(heap, stream[0])
                    else:
                        pop(heap)
                    fn = entry[2]
                    args = entry[3]
                elif shape == 4:  # fire-and-forget
                    pop(heap)
                    fn = entry[2]
                    args = entry[3]
                else:
                    pop(heap)
                    ev = entry[2]
                    if ev.cancelled:
                        continue
                    fn = ev.fn
                    args = ev.args
                self.now = time
                processed += 1
                self.events_processed = processed
                if acc is None:
                    fn(*args)
                    continue
                t0 = perf_counter()
                fn(*args)
                dt = perf_counter() - t0
                key = getattr(fn, "__func__", fn)
                if key is timer_fire:
                    inner = fn.__self__.fn
                    key = getattr(inner, "__func__", inner)
                ent = acc.get(key)
                if ent is None:
                    acc[key] = [1, dt]
                else:
                    ent[0] += 1
                    ent[1] += dt
            if self._running and until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            for ob in observers:
                ob.run_end(self, until)

    def stop(self) -> None:
        """Abort :meth:`run` after the current event finishes."""
        self._running = False

    def now_str(self) -> str:
        """Current virtual time, formatted for humans (see format_vtime)."""
        return format_vtime(self.now)

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued, in the heap
        or parked in a FIFO stream behind their stream's head."""
        return sum(
            1
            for entry in self._heap
            if len(entry) != 3 or not entry[2].cancelled
        ) + sum(len(stream) - 1 for stream in self._streams if stream)


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Protocol agents use these for ACK/NAK/EXP/SYN timers: ``restart`` both
    cancels the previous deadline and arms a fresh one, mirroring how the
    UDT receiver re-arms its timers after each timed UDP receive (§4.8).
    """

    __slots__ = ("sim", "fn", "_event")

    def __init__(self, sim: Simulator, fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        self._event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        return self._event is not None and not self._event.cancelled

    @property
    def deadline(self) -> Optional[float]:
        return self._event.time if self.armed else None

    def restart(self, delay: float) -> None:
        self.cancel()
        self._event = self.sim.schedule(delay, self._fire)

    def start_if_idle(self, delay: float) -> None:
        if not self.armed:
            self.restart(delay)

    def cancel(self) -> None:
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self.fn()
