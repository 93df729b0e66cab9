"""JSONL trace export and run summaries (qlog-inspired).

One event per line, flat JSON objects::

    {"kind": "trace.meta", "schema": 1, "generator": "repro-udt", ...}
    {"t": 0.1103, "kind": "cc.sample", "src": "udt0-snd", "rate_bps": ...}
    {"t": 0.2150, "kind": "link.drop", "src": "1->2", "reason": "queue", ...}

The first line is a metadata header (``kind == "trace.meta"``); every
other line is an event with at least ``t``/``kind``/``src``.  Flat JSONL
(rather than nested qlog) keeps the files greppable and streamable —
``jq 'select(.kind=="cc.sample")'`` is the expected workflow — while the
schema field leaves room to evolve.

Trace paths dispatch on suffix, everywhere a trace is read or written:

* ``*.jsonl`` — plain text JSONL (the interchange format above);
* ``*.jsonl.gz`` / ``*.gz`` — the same stream gzip-compressed (written
  with a zeroed mtime so identical event streams stay byte-identical);
* ``*.rtrc`` — the indexed binary store (``repro.obs.store``), the
  format for packet-tier and paper-scale traces.

``read_events`` yields the same flat dicts for all three, so every
consumer (timelines, spans, reports, the sanitizer) is format-agnostic.
"""

from __future__ import annotations

import gzip
import io
import json
import warnings
from contextlib import contextmanager
from collections import Counter as _Counter, defaultdict
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Union

from repro.obs.bus import CC_SAMPLE, Event, EventBus, Subscription, default_bus

SCHEMA_VERSION = 1

#: The trace formats a run can be asked to record, each named by the file
#: suffix that selects it (``sweep --trace-format``, ``lint
#: --sanitize-format``, the determinism sanitizer's ``trace_format``).
TRACE_FORMATS = ("jsonl", "jsonl.gz", "rtrc")


def is_rtrc_path(path: Any) -> bool:
    """True when ``path`` names an ``.rtrc`` binary trace container."""
    return str(path).endswith(".rtrc")


class _DeterministicGzipFile(gzip.GzipFile):
    """Writable GzipFile with zeroed mtime/name that owns its file.

    The gzip header embeds a timestamp by default, which would break the
    byte-identity guarantees the sweep runner and sanitizer rely on; a
    fixed ``mtime=0`` keeps identical event streams byte-identical.
    Closing also closes the underlying file (GzipFile alone does not
    close a caller-provided fileobj).
    """

    def __init__(self, path: str):
        self._raw = open(path, "wb")
        super().__init__(filename="", mode="wb", fileobj=self._raw, mtime=0)

    def close(self) -> None:
        try:
            super().close()
        finally:
            self._raw.close()


def open_trace_text(path: str, mode: str = "r") -> TextIO:
    """Open a JSONL trace path for text I/O, gzip-transparent on suffix."""
    p = str(path)
    if p.endswith(".gz"):
        if "r" in mode:
            return io.TextIOWrapper(gzip.open(p, "rb"), encoding="utf-8")
        return io.TextIOWrapper(
            _DeterministicGzipFile(p), encoding="utf-8", newline="\n"
        )
    return open(p, mode)


class JsonlWriter:
    """Streams bus events to a text file as JSON lines.

    ``sample`` takes the per-kind sampling spec of
    :class:`repro.obs.store.Sampler` (``{kind: "stride:N" | "head:N"}``);
    the policy is recorded in ``trace.meta`` so downstream consumers
    know what was dropped.
    """

    def __init__(
        self,
        out: TextIO,
        close_out: bool = False,
        sample: Optional[Dict[str, Union[str, int]]] = None,
    ):
        self._out = out
        self._close_out = close_out
        self.events_written = 0
        self._bus: Optional[EventBus] = None
        self._sub: Optional[Subscription] = None
        if sample:
            from repro.obs.store import Sampler

            self.sampler: Optional[Any] = Sampler(sample)
        else:
            self.sampler = None

    def write_meta(self, **meta: Any) -> None:
        rec = {"kind": "trace.meta", "schema": SCHEMA_VERSION}
        rec.update(meta)
        if self.sampler:
            rec.setdefault("sampling", self.sampler.policy())
        self._out.write(json.dumps(rec, separators=(",", ":"), default=str) + "\n")

    def on_event(self, ev: Event) -> None:
        if self.sampler is not None and not self.sampler.admit(ev.kind):
            return
        self._out.write(
            json.dumps(ev.to_dict(), separators=(",", ":"), default=str) + "\n"
        )
        self.events_written += 1

    # -- wiring ----------------------------------------------------------
    def attach(
        self,
        bus: Optional[EventBus] = None,
        kinds: Optional[Iterable[str]] = None,
        detail: bool = False,
    ) -> "JsonlWriter":
        if self._sub is not None:
            raise RuntimeError("writer already attached")
        self._bus = bus if bus is not None else default_bus()
        self._sub = self._bus.subscribe(self.on_event, kinds=kinds, detail=detail)
        return self

    def detach(self) -> None:
        if self._bus is not None and self._sub is not None:
            self._bus.unsubscribe(self._sub)
        self._bus = self._sub = None

    def close(self) -> None:
        self.detach()
        self._out.flush()
        if self._close_out:
            self._out.close()


def make_trace_writer(
    path: str, sample: Optional[Dict[str, Union[str, int]]] = None
) -> Any:
    """Create the writer matching ``path``'s trace format.

    ``*.rtrc`` gets the indexed binary store writer; everything else
    (``*.jsonl``, ``*.jsonl.gz``) a :class:`JsonlWriter`.  Both expose
    the same ``write_meta``/``on_event``/``attach``/``detach``/``close``
    surface, so callers never branch on format.
    """
    if is_rtrc_path(path):
        from repro.obs.store import RtrcWriter

        return RtrcWriter(path, sample=sample)
    return JsonlWriter(open_trace_text(path, "w"), close_out=True, sample=sample)


class TruncatedTraceWarning(UserWarning):
    """A JSONL trace contained malformed (usually crash-truncated) lines."""


def read_events(
    path: str,
    kinds: Optional[Iterable[str]] = None,
    include_meta: bool = False,
    strict: bool = False,
    stats: Optional[Dict[str, int]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield event dicts from a trace (optionally filtered by kind).

    Dispatches on suffix: ``*.rtrc`` routes to the indexed binary
    reader, ``*.gz`` decompresses transparently, anything else is plain
    JSONL — the yielded dicts are identical in all cases.

    A trace from a crashed or killed run usually ends mid-line; by
    default such malformed lines are skipped (and counted) instead of
    raising, so forensics tooling still works on truncated traces.  One
    :class:`TruncatedTraceWarning` summarises the skips when the reader
    finishes.  Pass ``strict=True`` to re-raise instead, or a ``stats``
    dict to receive the count under ``stats["skipped_lines"]``.
    """
    if is_rtrc_path(path):
        from repro.obs.store import read_rtrc_events

        yield from read_rtrc_events(
            path, kinds=kinds, include_meta=include_meta, strict=strict, stats=stats
        )
        return
    kindset = frozenset(kinds) if kinds is not None else None
    skipped = 0
    with open_trace_text(path, "r") as f:
        try:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if strict:
                        raise
                    skipped += 1
                    continue
                if not isinstance(rec, dict):
                    if strict:
                        raise ValueError(
                            f"trace line is not an object: {line[:80]!r}"
                        )
                    skipped += 1
                    continue
                if rec.get("kind") == "trace.meta":
                    if include_meta:
                        yield rec
                    continue
                if kindset is None or rec.get("kind") in kindset:
                    yield rec
        except EOFError:
            # gzip raises EOFError on a crash-truncated member; treat it
            # like a malformed trailing JSONL line.
            if strict:
                raise
            skipped += 1
    if stats is not None:
        stats["skipped_lines"] = stats.get("skipped_lines", 0) + skipped
    if skipped:
        warnings.warn(
            f"{path}: skipped {skipped} malformed JSONL line(s) "
            "(crash-truncated trace?)",
            TruncatedTraceWarning,
            stacklevel=2,
        )


@contextmanager
def trace_to_file(
    path: str,
    bus: Optional[EventBus] = None,
    kinds: Optional[Iterable[str]] = None,
    packets: bool = False,
    sample: Optional[Dict[str, Union[str, int]]] = None,
    **meta: Any,
) -> Iterator[Any]:
    """Write every event emitted inside the block to ``path``.

    ``packets=True`` wakes the per-packet detail tier too.  The format
    follows the suffix (see :func:`make_trace_writer`).
    """
    writer = make_trace_writer(path, sample=sample)
    writer.write_meta(packet_detail=packets, **meta)
    writer.attach(bus, kinds=kinds, detail=packets)
    try:
        yield writer
    finally:
        writer.close()


class TraceSummary:
    """Cheap aggregate view of a run: event counts and last CC state."""

    def __init__(self) -> None:
        self.counts: _Counter = _Counter()
        self.by_src: Dict[str, _Counter] = defaultdict(_Counter)
        self.last_cc: Dict[str, Dict[str, Any]] = {}
        self.t_min: Optional[float] = None
        self.t_max: Optional[float] = None

    def on_event(self, ev: Event) -> None:
        self.counts[ev.kind] += 1
        self.by_src[ev.src][ev.kind] += 1
        if self.t_min is None or ev.t < self.t_min:
            self.t_min = ev.t
        if self.t_max is None or ev.t > self.t_max:
            self.t_max = ev.t
        if ev.kind == CC_SAMPLE:
            self.last_cc[ev.src] = dict(ev.fields, t=ev.t)

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
    """One observability session: optional JSONL writer + summary.

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
    sample: Optional[Dict[str, Union[str, int]]] = None,
    **meta: Any,
) -> Iterator[TraceSession]:
    """Subscribe a writer and/or summary to ``bus`` for the block's duration.

    With neither ``trace_path`` nor ``summary`` requested this is a
    no-op context (the bus stays disabled and emit sites stay dormant).
    ``packets=True`` additionally wakes the per-packet detail tier
    (``pkt.snd``/``pkt.rcv``/``link.enq``/``link.deq``) so the trace can
    be span-reconstructed by ``repro-udt report``.  ``trace_path``'s
    suffix selects the format (JSONL, ``.jsonl.gz``, or ``.rtrc``).
    """
    bus = bus if bus is not None else default_bus()
    subs: List[Subscription] = []
    writer: Optional[Any] = None
    summ: Optional[TraceSummary] = None
    try:
        if trace_path:
            writer = make_trace_writer(trace_path, sample=sample)
            writer.write_meta(packet_detail=packets, **meta)
            subs.append(bus.subscribe(writer.on_event, kinds=kinds, detail=packets))
        if summary:
            summ = TraceSummary()
            subs.append(bus.subscribe(summ.on_event, kinds=kinds))
        yield TraceSession(writer, summ)
    finally:
        for sub in subs:
            bus.unsubscribe(sub)
        if writer is not None:
            writer._bus = writer._sub = None
            writer.close()
