"""Trace files: the one stored format, and the session that writes it.

A trace is a ``trace.meta`` header followed by flat event records with at
least ``t``/``kind``/``src`` (qlog-inspired, but flat rather than nested).
Every trace is stored as an ``.rtrc`` container (:mod:`repro.obs.store`):
compressed, and indexed by kind, src and time.  ``repro-udt trace query``
renders one as JSON lines, one flat object per event::

    {"t":0.1103,"kind":"cc.sample","src":"udt0-snd","rate_bps":...}
    {"t":0.2150,"kind":"link.drop","src":"1->2","reason":"queue",...}

so ``repro-udt trace query t.rtrc | jq ...`` is the text workflow.

This module is the only place that looks at a file suffix
(:func:`check_trace_path`).  :func:`read_events` is the function
consumers call (timelines, spans, reports, conformance), and
:func:`trace_session` is the one place a writer is subscribed to a bus.
The codec loads only inside the functions that read or write a trace, so
an untraced run never compiles it.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.bus import EventBus, Subscription


class TruncatedTraceWarning(UserWarning):
    """A trace was malformed or incomplete (usually a crash-truncated run)."""


def check_trace_path(path: Union[str, Path]) -> None:
    """Raise ``ValueError`` unless ``path`` names an ``.rtrc`` trace."""
    if not str(path).endswith(".rtrc"):
        raise ValueError(
            f"{path}: a trace is written as .rtrc; "
            "'repro-udt trace query' prints one as JSON lines"
        )


def read_events(
    path: Union[str, Path],
    kinds: Optional[Iterable[str]] = None,
    include_meta: bool = False,
    strict: bool = False,
) -> Iterator[Dict[str, Any]]:
    """Yield event dicts from a trace (optionally filtered by kind).

    A trace from a crashed or killed run is served up to its last
    complete block and one :class:`TruncatedTraceWarning` is raised when
    the reader finishes.  Pass ``strict=True`` to raise instead; a caller
    that wants the block tally opens an ``RtrcReader`` and reads its
    ``truncated`` and ``scan_counters()``.
    """
    from repro.obs.store import RtrcReader

    with RtrcReader(path, strict=strict) as reader:
        yield from reader.iter_events(kinds=kinds, include_meta=include_meta)
        if reader.truncated:
            warnings.warn(
                f"{reader.path}: truncated or malformed trace — served the "
                "complete records only (crash-truncated run?)",
                TruncatedTraceWarning,
                stacklevel=2,
            )


class TraceSession:
    """One observability session and its optional trace writer.

    Created by :func:`trace_session`; the CLI and experiment helpers read
    ``events_written`` off it.
    """

    def __init__(self, writer: Optional[Any] = None):
        self.writer = writer

    @property
    def events_written(self) -> int:
        return self.writer.events_written if self.writer is not None else 0


@contextmanager
def trace_session(
    trace_path: Optional[str] = None,
    bus: Optional[EventBus] = None,
    kinds: Optional[Iterable[str]] = None,
    packets: bool = False,
    **meta: Any,
) -> Iterator[TraceSession]:
    """Subscribe a trace writer for the block's duration.

    To ``bus`` when given; otherwise, through one engine ``RunObserver``,
    to each simulator's own bus the first time that simulator runs inside
    the block, whenever it was built.  On exit it leaves every bus.

    Without a ``trace_path`` this is a no-op context (every bus stays
    disabled and emit sites stay dormant).  ``packets=True`` additionally wakes the per-packet detail tier
    (``pkt.snd``/``pkt.rcv``/``link.enq``/``link.deq``) so the trace can
    be span-reconstructed by ``repro-udt report``.  ``trace_path`` must
    end in ``.rtrc`` (:func:`check_trace_path`; checked before anything
    is opened).  This is the only place a trace writer is subscribed to
    a bus.
    """
    writer: Optional[Any] = None
    subscribers: List[Tuple[Any, bool]] = []  # (fn, detail)
    joined: Dict[EventBus, List[Subscription]] = {}
    joiner: Optional[_RunJoiner] = None

    def join(bus: EventBus) -> None:
        if bus not in joined:
            joined[bus] = [bus.subscribe(fn, kinds=kinds, detail=d) for fn, d in subscribers]

    try:
        if trace_path:
            from repro.obs.store import RtrcWriter

            check_trace_path(trace_path)
            writer = RtrcWriter(trace_path)
            writer.write_meta(packet_detail=packets, **meta)
            subscribers.append((writer.record, packets))
        if bus is not None:
            join(bus)
        elif subscribers:
            from repro.sim.engine import add_run_observer, remove_run_observer

            joiner = _RunJoiner(join)
            add_run_observer(joiner)
        yield TraceSession(writer)
    finally:
        if joiner is not None:
            remove_run_observer(joiner)
        for b, subs in joined.items():
            for sub in subs:
                b.unsubscribe(sub)
        if writer is not None:
            writer.close()


class _RunJoiner:
    """A :class:`~repro.sim.engine.RunObserver` that hands each running
    simulator's bus to ``join``.  It misses only what a simulation emits
    before its first run in the block; its components emit from events."""

    def __init__(self, join: Callable[[EventBus], None]):
        self.join = join

    def run_begin(self, sim: Any, until: Optional[float]) -> None:
        self.join(sim.bus)

    def run_end(self, sim: Any, until: Optional[float]) -> None:
        pass
