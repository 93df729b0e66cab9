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
from collections import Counter as _Counter, defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.obs.bus import CC_SAMPLE, EventBus, Subscription


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
    stats: Optional[Dict[str, Any]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield event dicts from a trace (optionally filtered by kind).

    A trace from a crashed or killed run is served up to its last
    complete block and one :class:`TruncatedTraceWarning` is raised when
    the reader finishes.  Pass ``strict=True`` to raise instead, or a
    ``stats`` dict to receive ``truncated`` plus the reader's
    ``scan_counters()`` (the block tally).
    """
    from repro.obs.store import RtrcReader

    with RtrcReader(path, strict=strict) as reader:
        yield from reader.iter_events(kinds=kinds, include_meta=include_meta)
        if stats is not None:
            stats.update(truncated=reader.truncated, **reader.scan_counters())
        if reader.truncated:
            warnings.warn(
                f"{reader.path}: truncated or malformed trace — served the "
                "complete records only (crash-truncated run?)",
                TruncatedTraceWarning,
                stacklevel=2,
            )


class TraceSummary:
    """Cheap aggregate view of a run: event counts and last CC state."""

    def __init__(self) -> None:
        self.counts: _Counter = _Counter()
        self.by_src: Dict[str, _Counter] = defaultdict(_Counter)
        self.last_cc: Dict[str, Dict[str, Any]] = {}
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None

    def record(self, kind: str, t: float, src: str, fields: Dict[str, Any]) -> None:
        """Bus subscriber entry point."""
        self.counts[kind] += 1
        self.by_src[src][kind] += 1
        if self.t_min is None or t < self.t_min:
            self.t_min = t
        if self.t_max is None or t > self.t_max:
            self.t_max = t
        if kind == CC_SAMPLE:
            self.last_cc[src] = dict(fields, t=t)

    @property
    def total_events(self) -> int:
        return sum(self.counts.values())

    def to_text(self) -> str:
        lines = ["== telemetry summary =="]
        if self.t_min is not None:
            lines.append(
                f"{self.total_events} events over t=[{self.t_min:.3f}, {self.t_max:.3f}]s virtual"
            )
        for kind in sorted(self.counts):
            lines.append(f"  {kind:<20s} {self.counts[kind]}")
        for src in sorted(self.last_cc):
            s = self.last_cc[src]
            lines.append(
                f"  {src}: last rate={s.get('rate_bps', 0.0)/1e6:.2f} Mb/s "
                f"cwnd={s.get('cwnd', 0.0):.1f} rtt={s.get('rtt', 0.0)*1e3:.2f} ms "
                f"bw_est={s.get('bw_est', 0.0):.0f} pkt/s loss_len={s.get('loss_len', 0)}"
            )
        return "\n".join(lines)


class TraceSession:
    """One observability session: optional trace writer + summary.

    Created by :func:`trace_session`; the CLI and experiment helpers use
    it so a single object carries whatever telemetry the run asked for.
    """

    def __init__(
        self,
        writer: Optional[Any] = None,
        summary: Optional[TraceSummary] = None,
    ):
        self.writer = writer
        self.summary = summary

    @property
    def events_written(self) -> int:
        return self.writer.events_written if self.writer is not None else 0

    def summary_text(self) -> Optional[str]:
        return self.summary.to_text() if self.summary is not None else None


@contextmanager
def trace_session(
    trace_path: Optional[str] = None,
    summary: bool = False,
    bus: Optional[EventBus] = None,
    kinds: Optional[Iterable[str]] = None,
    packets: bool = False,
    **meta: Any,
) -> Iterator[TraceSession]:
    """Subscribe a writer and/or summary for the block's duration.

    To ``bus`` when given; otherwise, through one engine ``RunObserver``,
    to each simulator's own bus the first time that simulator runs inside
    the block, whenever it was built.  On exit it leaves every bus.

    With neither ``trace_path`` nor ``summary`` requested this is a
    no-op context (every bus stays disabled and emit sites stay dormant).
    ``packets=True`` additionally wakes the per-packet detail tier
    (``pkt.snd``/``pkt.rcv``/``link.enq``/``link.deq``) so the trace can
    be span-reconstructed by ``repro-udt report``.  ``trace_path`` must
    end in ``.rtrc`` (:func:`check_trace_path`; checked before anything
    is opened).  This is the only place a trace writer is subscribed to
    a bus.
    """
    writer: Optional[Any] = None
    summ: Optional[TraceSummary] = None
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
        if summary:
            summ = TraceSummary()
            subscribers.append((summ.record, False))
        if bus is not None:
            join(bus)
        elif subscribers:
            from repro.sim.engine import add_run_observer, remove_run_observer

            joiner = _RunJoiner(join)
            add_run_observer(joiner)
        yield TraceSession(writer, summ)
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
