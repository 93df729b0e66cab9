"""Trace files: the two on-disk formats and the one seam in front of them.

A trace is a ``trace.meta`` header followed by flat event records with at
least ``t``/``kind``/``src`` (qlog-inspired, but flat rather than nested).
It is stored in one of two formats, named by the file suffix:

* ``*.jsonl`` — one JSON object per line::

      {"kind": "trace.meta", "schema": 1, "generator": "repro-udt", ...}
      {"t": 0.1103, "kind": "cc.sample", "src": "udt0-snd", "rate_bps": ...}
      {"t": 0.2150, "kind": "link.drop", "src": "1->2", "reason": "queue", ...}

  greppable and streamable (``jq 'select(.kind=="cc.sample")'`` is the
  expected workflow), and the reference every round-trip test compares
  against;
* ``*.rtrc`` — the same stream in the compressed, indexed container of
  :mod:`repro.obs.store`, the format for packet-tier and paper-scale
  traces.

This module is the only place that looks at a suffix.  Everything else
goes through three functions: :func:`open_trace` returns a reader,
:func:`make_trace_writer` a writer, :func:`convert_trace` feeds one into
the other.  The two readers share one surface — ``meta``,
``iter_events(kinds, srcs, t0, t1, include_meta)``, ``iter_jsonl``,
``stats()``, ``event_stream()``, ``events_total``, ``truncated``,
``scan_counters()`` — which the ``.rtrc`` reader answers from its block
index and the JSONL reader by scanning; the two writers share
``write_meta`` / ``record`` / ``feed`` / ``close`` /
``events_written``, where ``record(kind, t, src, fields)`` is a bus
subscriber.  :func:`read_events` is the function consumers call
(timelines, spans, reports, conformance): the same flat dicts whatever
the format.  :func:`trace_session` is the one place a writer is
subscribed to a bus.

The ``.rtrc`` codec loads only inside the functions that open, write or
convert an ``.rtrc`` (the JSONL writer takes its line encoder from it
too), so an untraced run never compiles it.
"""

from __future__ import annotations

import json
import warnings
from contextlib import contextmanager
from collections import Counter as _Counter, defaultdict
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.obs.bus import CC_SAMPLE, SCHEMA_VERSION, EventBus, Subscription

if TYPE_CHECKING:
    from repro.obs.store import RtrcReader, RtrcWriter

#: The trace formats a run can be asked to record, each named by the file
#: suffix that selects it (``sweep --trace-format``, ``lint
#: --sanitize-format``, the determinism sanitizer's ``trace_format``).
TRACE_FORMATS = ("jsonl", "rtrc")


def _is_rtrc(path: Any) -> bool:
    return str(path).endswith(".rtrc")


class TruncatedTraceWarning(UserWarning):
    """A trace was malformed or incomplete (usually a crash-truncated run)."""


# ---------------------------------------------------------------------------
# JSONL: writer and scanning reader
# ---------------------------------------------------------------------------


class JsonlWriter:
    """Streams bus events to a text file as JSON lines."""

    def __init__(self, out: TextIO, close_out: bool = False):
        from repro.obs.store import dump_record

        self._dump = dump_record
        self._out = out
        self._close_out = close_out
        self.events_written = 0

    def write_meta(self, **meta: Any) -> None:
        rec = {"kind": "trace.meta", "schema": SCHEMA_VERSION}
        rec.update(meta)
        self._out.write(self._dump(rec) + "\n")

    def record(self, kind: str, t: float, src: str, fields: Dict[str, Any]) -> None:
        """Bus subscriber entry point: one flat record, one line."""
        self._out.write(self._dump({"t": t, "kind": kind, "src": src, **fields}) + "\n")
        self.events_written += 1

    def feed(self, rec: Dict[str, Any]) -> None:
        """Write an already-flat record verbatim (the conversion path)."""
        self._out.write(self._dump(rec) + "\n")
        if rec.get("kind") != "trace.meta":
            self.events_written += 1

    def close(self) -> None:
        self._out.flush()
        if self._close_out:
            self._out.close()


class JsonlReader:
    """The :class:`~repro.obs.store.RtrcReader` surface over a ``.jsonl`` file.

    There is no index, so every query is a scan of the whole file (opened
    afresh per scan; nothing is held open in between).  A trace from a
    crashed or killed run usually ends mid-line: malformed lines are
    skipped and counted in :attr:`skipped_lines` unless ``strict``, in
    which case the scan raises at the first one.
    """

    def __init__(self, path: Union[str, Path], strict: bool = False):
        self.path = Path(path)
        self.strict = strict
        self.skipped_lines = 0
        with open(self.path, "r") as f:
            first = f.readline()
        try:
            rec = json.loads(first)
        except ValueError:
            rec = None
        #: the ``trace.meta`` header record, ``{}`` for a header-less file
        self.meta: Dict[str, Any] = (
            rec if isinstance(rec, dict) and rec.get("kind") == "trace.meta" else {}
        )

    @property
    def truncated(self) -> bool:
        """True once a scan has met a malformed line."""
        return self.skipped_lines > 0

    def _scan(
        self,
        kinds: Optional[Iterable[str]] = None,
        srcs: Optional[Iterable[str]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        include_meta: bool = False,
    ) -> Iterator[Tuple[str, Dict[str, Any]]]:
        """(line as stored, parsed record) for every matching line."""
        kindset = frozenset(kinds) if kinds is not None else None
        srcset = frozenset(srcs) if srcs is not None else None
        timed = t0 is not None or t1 is not None
        with open(self.path, "r") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    if self.strict:
                        raise
                    self.skipped_lines += 1
                    continue
                if not isinstance(rec, dict):
                    if self.strict:
                        raise ValueError(
                            f"trace line is not an object: {line[:80]!r}"
                        )
                    self.skipped_lines += 1
                    continue
                kind = rec.get("kind")
                if kind == "trace.meta":
                    if include_meta:
                        yield line, rec
                    continue
                if kindset is not None and kind not in kindset:
                    continue
                if srcset is not None and rec.get("src") not in srcset:
                    continue
                if timed:
                    t = rec.get("t", 0.0)
                    if t0 is not None and t < t0:
                        continue
                    if t1 is not None and t > t1:
                        continue
                yield line, rec

    def iter_events(self, **query: Any) -> Iterator[Dict[str, Any]]:
        """Yield the flat event dicts matching ``query`` (see :meth:`_scan`)."""
        for _, rec in self._scan(**query):
            yield rec

    def iter_jsonl(self, **query: Any) -> Iterator[str]:
        """Matching events as the lines the file stores (no trailing newline)."""
        for line, _ in self._scan(**query):
            yield line

    def event_stream(self) -> BinaryIO:
        """Binary stream over every byte after the ``trace.meta`` line."""
        if not self.meta:
            raise ValueError(
                f"{self.path}: trace does not start with a trace.meta header"
            )
        f = open(self.path, "rb")
        f.readline()
        return f

    @property
    def events_total(self) -> int:
        """Event lines after the header, counted without parsing them."""
        with self.event_stream() as f:
            return sum(
                chunk.count(b"\n") for chunk in iter(lambda: f.read(1 << 20), b"")
            )

    def stats(self) -> Dict[str, Any]:
        """Whole-trace summary (one full scan)."""
        counts: _Counter = _Counter()
        srcs: set = set()
        t_lo = t_hi = None
        for rec in self.iter_events():
            counts[rec.get("kind", "?")] += 1
            srcs.add(rec.get("src", ""))
            t = rec.get("t", 0.0)
            t_lo = t if t_lo is None else min(t_lo, t)
            t_hi = t if t_hi is None else max(t_hi, t)
        return {
            "path": str(self.path),
            "format": "jsonl",
            "events": sum(counts.values()),
            "t0": t_lo,
            "t1": t_hi,
            "kinds": dict(sorted(counts.items())),
            "srcs": sorted(srcs),
            "truncated": self.truncated,
        }

    def scan_counters(self) -> Dict[str, int]:
        """What the scans so far had to skip."""
        return {"skipped_lines": self.skipped_lines}

    def close(self) -> None:
        """Nothing to release: each scan closes the file it opened."""

    def __enter__(self) -> "JsonlReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The seam: reader, writer, converter — the only suffix dispatch in the tree
# ---------------------------------------------------------------------------


def open_trace(
    path: Union[str, Path], strict: bool = False
) -> Union[RtrcReader, JsonlReader]:
    """Open the reader matching ``path``'s trace format.

    By default a damaged trace serves its complete records and reports
    ``truncated``; ``strict=True`` raises instead.
    """
    if _is_rtrc(path):
        from repro.obs.store import RtrcReader

        return RtrcReader(path, strict=strict)
    return JsonlReader(path, strict=strict)


def make_trace_writer(
    path: Union[str, Path], block_events: Optional[int] = None
) -> Union[RtrcWriter, JsonlWriter]:
    """Create the writer matching ``path``'s trace format.

    ``block_events`` sizes the ``.rtrc`` blocks (``None``: the store's
    ``DEFAULT_BLOCK_EVENTS``; the text format has none).
    """
    if _is_rtrc(path):
        from repro.obs.store import DEFAULT_BLOCK_EVENTS, RtrcWriter

        if block_events is None:
            block_events = DEFAULT_BLOCK_EVENTS
        return RtrcWriter(path, block_events=block_events)
    return JsonlWriter(open(path, "w"), close_out=True)


def _warn_if_truncated(reader: Union[RtrcReader, JsonlReader]) -> None:
    if reader.truncated:
        warnings.warn(
            f"{reader.path}: truncated or malformed trace — served the "
            "complete records only (crash-truncated run?)",
            TruncatedTraceWarning,
            stacklevel=3,
        )


def read_events(
    path: Union[str, Path],
    kinds: Optional[Iterable[str]] = None,
    include_meta: bool = False,
    strict: bool = False,
    stats: Optional[Dict[str, Any]] = None,
) -> Iterator[Dict[str, Any]]:
    """Yield event dicts from a trace (optionally filtered by kind).

    The yielded dicts are identical whatever the format.  A trace from a
    crashed or killed run is served up to its last complete record (line
    or block) and one :class:`TruncatedTraceWarning` is raised when the
    reader finishes.  Pass ``strict=True`` to raise instead, or a
    ``stats`` dict to receive ``skipped_lines`` and ``truncated`` plus
    the reader's ``scan_counters()`` (the ``.rtrc`` block tally).
    """
    with open_trace(path, strict=strict) as reader:
        yield from reader.iter_events(kinds=kinds, include_meta=include_meta)
        if stats is not None:
            stats.update(
                {"skipped_lines": 0, "truncated": reader.truncated},
                **reader.scan_counters(),
            )
        _warn_if_truncated(reader)


def convert_trace(
    src: Union[str, Path],
    dst: Union[str, Path],
    block_events: Optional[int] = None,
) -> int:
    """Re-encode ``src`` as ``dst``, any format to any; returns events written.

    The meta record and every event field are fed through verbatim, in
    their original key order, so ``jsonl -> rtrc -> jsonl`` reproduces
    the input byte for byte.  Damaged input converts up to its last
    complete record, with a :class:`TruncatedTraceWarning`.
    """
    with open_trace(src) as reader:
        writer = make_trace_writer(dst, block_events)
        try:
            for rec in reader.iter_events(include_meta=True):
                writer.feed(rec)
        finally:
            writer.close()
        _warn_if_truncated(reader)
    return writer.events_written


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
    be span-reconstructed by ``repro-udt report``.  ``trace_path``'s
    suffix selects the format (see :func:`make_trace_writer`).  This is
    the only place a trace writer is subscribed to a bus.
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
            writer = make_trace_writer(trace_path)
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
