"""Compact, indexed, streaming binary trace store (``.rtrc``).

Every trace is stored in this container.  A ``--trace-packets`` run of
fig08 emits 7.1M events, and paper-scale scenarios (400 flows x 100 s)
would make a line per event as text unwritable, undiffable and
unqueryable.  ``.rtrc`` holds the flat event stream in a framed,
compressed, *indexed* container:

* events are buffered into **blocks** (default 4096 events); a block
  stores its timestamps as a binary float64 column and everything else
  as columns too: one entry per distinct (kind, src, field names) key,
  a key index per event and one value column per key, so the block
  compresses to a few percent of its JSON-lines rendering;
* every block is **framed** (tag byte + length + zlib payload), so a
  crash-truncated file is recoverable up to the last complete block;
* a **footer index** records, per block, the byte offset, event count,
  time range, per-kind counts and src set.  Readers answer
  ``kind``/``src``/time-range queries by *skipping* blocks whose index
  entry cannot match — ``repro-udt trace query`` never inflates what it
  does not need — and ``stats()`` comes from the index alone.

Everything is deterministic — block boundaries depend only on the event
stream, the time column is little-endian on every host, compression is
zlib at a fixed level, and the one writer thread writes frames in the
order they are handed to it — so the sweep runner and the determinism
sanitizer can compare two traces byte for byte.

File layout (container version 3; the version is the fifth magic byte,
and a file of any other version is refused before a block is decoded)::

    magic   b"RTRC\\x03\\n"
    frame   b"M" | u32 len | zlib(trace.meta JSON)      (exactly one)
    frame   b"B" | u32 len | zlib(block payload)        (zero or more)
    frame   b"F" | u32 len | zlib(footer-index JSON)    (exactly one)
    trailer u64 footer-frame offset | b"RTRCIDX\\x03"

Block payload: ``u32 head_len | JSON head | float64[n]``, all
little-endian.  The head is ``{"h": [[kind, src, [field, ...]], ...],
"r": [key index per event], "v": [[values of key 0], ...]}``: event
``i`` is of key ``r[i]``, its timestamp is element ``i`` of the column,
and its values are the next ``len(fields)`` of its key's value column,
which holds its events' values event after event.  Work per event is one
dictionary lookup, two appends and an ``extend``; a key is interned the
first time a block sees it (7 to 39 keys a block on the ``udt_traced``
stream).  A simulated time is a sum of jittered serialisation times,
17.8 characters as text against 8 bytes here.  A ``t`` the column
cannot hold exactly (anything but a ``float``:
``Simulator.run(until=5)`` leaves the clock an ``int``) stays JSON in
the head's sparse ``"t"`` list as ``[row, value]``; the key is there only
when a block has such a row, and an entry of any other shape is damage.
Decoding rebuilds each flat event dict in its original key order.

Damage is reported one way: a file that is not a version-3 container
raises :class:`RtrcFormatError` on opening; a frame that fails to
inflate, parse or add up ends the stream at the last good block with
``truncated`` set, or raises :class:`RtrcFormatError` under ``strict``.

This module is the codec only, a leaf: it never looks at a file suffix
and knows nothing of the module above it that checks the suffix and
subscribes the writer to a bus
(``test_only_export_tests_a_trace_suffix`` fails on an import pointing
that way).
"""

from __future__ import annotations

import json
import queue
import struct
import threading
import zlib
from collections import Counter
from pathlib import Path
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.obs.bus import SCHEMA_VERSION, Event

#: Container layout version (independent of the event schema version).
STORE_VERSION = 3
_MAGIC_HEAD, _MAGIC_TAIL = b"RTRC", b"\n"
MAGIC = _MAGIC_HEAD + bytes([STORE_VERSION]) + _MAGIC_TAIL
TRAILER_MAGIC = b"RTRCIDX" + bytes([STORE_VERSION])
#: Frame tags.
_TAG_META, _TAG_BLOCK, _TAG_FOOTER = b"M", b"B", b"F"
_LEN = struct.Struct("<I")
_OFF = struct.Struct("<Q")
#: Events buffered per block before compression.
DEFAULT_BLOCK_EVENTS = 4096
#: zlib level; fixed so identical event streams give identical bytes.
#: Chosen on container version 2 by rule from a measured table: the cheapest
#: level whose file is no larger than container version 1 (timestamps as
#: text, level 6) wrote for the same stream, on both streams below.  zlib
#: seconds are medians of 15 interleaved passes over the 102 block payloads
#: of the ``udt_traced`` stream (benchmarks/perf, seed 1: 414 948 events,
#: 14 376 503 payload bytes); bytes are whole version-2 files, ``udt_traced``
#: / CI's fig02 packet cell (854 405 events).  The rule was not re-checked on
#: version 3, whose level-2 files are 3 976 020 / 7 039 890 bytes.
#: docs/PERFORMANCE.md, "Trace writer", has the rest.
#:
#:     level   zlib s   udt_traced B   fig02 cell B
#:     v1 @ 6   0.72      4 437 067      8 598 648     (the bound)
#:         1    0.14      4 327 196      8 599 363     larger on fig02
#:         2    0.16      4 242 214      8 251 755     <- chosen
#:         3    0.21      4 175 064      8 003 200
#:         4    0.19      3 844 545      7 379 884
#:         5    0.26      3 719 748      7 097 111
#:         6    0.45      3 687 398      7 006 480
COMPRESSION_LEVEL = 2

_dumps = json.dumps


def dump_record(rec: Dict[str, Any]) -> str:
    """One record as its canonical JSON line (no trailing newline)."""
    return _dumps(rec, separators=(",", ":"), default=str)


def _index_time(t: Any) -> Any:
    """What a block's ``t0``/``t1`` count a record's time as: a number
    as itself, anything else as 0.0."""
    return t if isinstance(t, (int, float)) else 0.0


class RtrcFormatError(ValueError):
    """The file is not a well-formed ``.rtrc`` container."""


#: What parsing and decoding a damaged frame's payload can raise
#: (``RtrcFormatError``, ``JSONDecodeError`` and ``UnicodeDecodeError`` are
#: ``ValueError``s); the reader lets none of it out as anything but
#: :class:`RtrcFormatError` or ``truncated``.
_DAMAGE = (struct.error, ValueError, LookupError, TypeError)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


def _write_frame(out: BinaryIO, tag: bytes, payload: bytes) -> int:
    """Compress + frame one payload at the end of ``out``; returns its offset."""
    offset = out.tell()
    data = zlib.compress(payload, COMPRESSION_LEVEL)
    out.write(tag)
    out.write(_LEN.pack(len(data)))
    out.write(data)
    return offset


def _frame_writer(jobs: queue.Queue, out: BinaryIO, failed: List[Exception]) -> None:
    """The writer thread: frames ``(tag, payload, index entry)`` jobs in
    order until ``None``, setting each block entry's ``"o"`` to where its
    frame landed.  After a failure it only drains, so the caller never
    blocks on a full queue; the caller re-raises ``failed[0]``."""
    while True:
        job = jobs.get()
        if job is None:
            return
        if failed:
            continue
        tag, payload, entry = job
        try:
            offset = _write_frame(out, tag, payload)
        except Exception as exc:  # re-raised on the caller's thread
            failed.append(exc)
        else:
            if entry is not None:
                entry["o"] = offset


class RtrcWriter:
    """Streams bus events into an ``.rtrc`` container.

    ``record(kind, t, src, fields)`` is the bus subscriber
    ``trace_session`` hands to a bus; ``write_meta`` writes the header.

    Events are filed and blocks JSON-encoded on the caller's thread;
    compressing and writing the frames happens on one ``rtrc-writer``
    thread, started here and joined by :meth:`close` (zlib and file
    writes release the interpreter lock, so on a free second core they
    overlap the caller's work).  At most two blocks are handed over and
    not yet written; an error the thread met re-raises from the next
    block flush or from :meth:`close`.  Frames are written in the order
    they are handed over, so the bytes are those of a writer without the
    thread.
    """

    def __init__(
        self, path: Union[str, Path], block_events: int = DEFAULT_BLOCK_EVENTS
    ):
        if block_events < 1:
            raise ValueError("block_events must be >= 1")
        self.path = Path(path)
        self._out: BinaryIO = open(self.path, "wb")
        self._out.write(MAGIC)
        self.block_events = block_events
        self._flushed = 0
        self._meta_written = False
        self._index: List[Dict[str, Any]] = []
        self._closed = False
        # one block queued, one being written
        self._jobs: queue.Queue = queue.Queue(maxsize=1)
        self._failed: List[Exception] = []
        self._worker = threading.Thread(
            target=_frame_writer,
            args=(self._jobs, self._out, self._failed),
            name="rtrc-writer",
            daemon=True,
        )
        self._worker.start()
        self._new_block()

    @property
    def events_written(self) -> int:
        return self._flushed + len(self._rows)

    def _new_block(self) -> None:
        """Empty key table, key column, value columns and time column."""
        #: ``(kind, src, *field names)`` -> its index in ``_heads``
        self._key_ids: Dict[tuple, int] = {}
        self._heads: List[list] = []  # [kind, src, [field, ...]] per key
        self._values: List[list] = []  # per key, its events' values in order
        self._rows: List[int] = []  # per event, its key's index
        self._times: List[float] = []
        #: ``[row, t]`` for every ``t`` the column cannot hold
        self._odd_times: List[list] = []

    # -- meta ------------------------------------------------------------
    def write_meta(self, **meta: Any) -> None:
        """Write the ``trace.meta`` record (before any event)."""
        if self._meta_written:
            raise RuntimeError("trace.meta already written")
        rec = {"kind": "trace.meta", "schema": SCHEMA_VERSION}
        rec.update(meta)
        self._submit(_TAG_META, dump_record(rec).encode("utf-8"))
        self._meta_written = True

    # -- event intake ----------------------------------------------------
    def record(self, kind: str, t: Any, src: str, fields: Dict[str, Any]) -> None:
        """Bus subscriber entry point: file one event under its key."""
        if not self._meta_written:
            self.write_meta()
        key = (kind, src, *fields)
        ki = self._key_ids.get(key)
        if ki is None:
            ki = self._key_ids[key] = len(self._heads)
            self._heads.append([kind, src, list(fields)])
            self._values.append([])
        self._values[ki].extend(fields.values())
        rows = self._rows
        if isinstance(t, float):
            self._times.append(t)
        else:
            self._odd_times.append([len(rows), t])
            self._times.append(0.0)
        rows.append(ki)
        if len(rows) >= self.block_events:
            self._flush_block()

    def on_event(self, ev: Event) -> None:
        """:meth:`record` for an event held as a value."""
        self.record(ev.kind, ev.t, ev.src, ev.fields)

    # -- framing ---------------------------------------------------------
    def _submit(
        self, tag: bytes, payload: bytes, entry: Optional[Dict[str, Any]] = None
    ) -> None:
        """Hand one frame to the writer thread, first re-raising its error."""
        if self._failed:
            raise self._failed[0]
        if self._closed:
            raise ValueError(f"{self.path}: the trace writer is closed")
        self._jobs.put((tag, payload, entry))

    def _flush_block(self) -> None:
        if not self._rows:
            return
        rows, heads, times = self._rows, self._heads, self._times
        column = struct.pack(f"<{len(times)}d", *times)
        head = {"h": heads, "r": rows, "v": self._values}
        if self._odd_times:
            head["t"] = self._odd_times
            # ``times`` only feeds the index from here on: what the index
            # counts such a row's time as replaces the column's placeholder.
            for i, t in self._odd_times:
                times[i] = _index_time(t)
        head_json = _dumps(head, separators=(",", ":"), default=str).encode("utf-8")
        # Block stats are derived here, once per block, rather than
        # maintained per event — the append path stays lean.  The writer
        # thread fills in ``"o"`` once the frame has an offset.
        counts: Counter = Counter()
        for ki, n in Counter(rows).items():
            counts[heads[ki][0]] += n
        entry = {
            "o": None,
            "n": len(rows),
            "t0": min(times),
            "t1": max(times),
            "k": dict(sorted(counts.items())),
            "s": sorted({src for _, src, _ in heads}),
        }
        self._submit(_TAG_BLOCK, _LEN.pack(len(head_json)) + head_json + column, entry)
        self._index.append(entry)
        self._flushed += len(rows)
        self._new_block()

    def close(self) -> None:
        """Flush, join the writer thread, write the footer and trailer."""
        if self._closed:
            return
        try:
            try:
                if not self._meta_written:
                    self.write_meta()
                self._flush_block()
            finally:
                self._closed = True
                self._jobs.put(None)
                self._worker.join()
            if self._failed:
                raise self._failed[0]
            footer = {
                "store": STORE_VERSION,
                "events": self.events_written,
                "blocks": self._index,
            }
            offset = _write_frame(
                self._out,
                _TAG_FOOTER,
                _dumps(footer, separators=(",", ":")).encode("utf-8"),
            )
            self._out.write(_OFF.pack(offset))
            self._out.write(TRAILER_MAGIC)
        finally:
            self._out.close()


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _decode_block(payload: bytes) -> List[Dict[str, Any]]:
    """The flat event dicts of one decompressed block payload."""
    (head_len,) = _LEN.unpack_from(payload)
    column_at = _LEN.size + head_len
    head = json.loads(payload[_LEN.size:column_at])
    heads, columns, rows = head["h"], head["v"], head["r"]
    # struct.error unless the column is exactly one double per row
    times = struct.unpack(f"<{len(rows)}d", payload[column_at:])
    # every key index names a key, and every value column holds exactly
    # the values its key's events need
    filed = Counter(rows)
    if (len(columns) != len(heads) or not filed.keys() <= set(range(len(heads)))
            or [len(v) for v in columns]
            != [filed[ki] * len(f) for ki, (_, _, f) in enumerate(heads)]):
        raise ValueError("the block's columns do not add up")
    # per key: a record to copy (every key in place, so filling it never
    # grows the dict), its field names and a cursor into its value column
    keys = [({"t": 0.0, "kind": k, "src": s, **dict.fromkeys(f)}, f, iter(v))
            for (k, s, f), v in zip(heads, columns)]
    recs = []
    for t, ki in zip(times, rows):
        blank, fields, values = keys[ki]
        rec = blank.copy()
        rec["t"] = t
        rec.update(zip(fields, values))
        recs.append(rec)
    for i, t in head.get("t", ()):
        recs[i]["t"] = t
    return recs


class RtrcReader:
    """Indexed reader over an ``.rtrc`` container.

    ``iter_events`` uses the footer index to *skip* whole blocks that
    cannot match the requested kinds/srcs/time range — the counters
    :attr:`blocks_read` / :attr:`blocks_skipped` record exactly how much
    of the file was inflated, which is what the query CLI reports and
    the tests assert on.  A file with a missing or corrupt footer
    (crash-truncated run) degrades to a sequential frame scan over the
    complete blocks, and a block that turns out damaged when a query
    reaches it ends that query at the block before; :attr:`truncated`
    reports that either happened (``strict=True`` raises
    :class:`RtrcFormatError` instead).
    """

    def __init__(self, path: Union[str, Path], strict: bool = False):
        self.path = Path(path)
        self._f: BinaryIO = open(self.path, "rb")
        self.strict = strict
        self.truncated = False
        self.blocks_read = 0
        self.blocks_skipped = 0
        head = self._f.read(len(MAGIC))
        if head != MAGIC:
            self._f.close()
            if head[:4] == _MAGIC_HEAD and head[5:] == _MAGIC_TAIL:
                raise RtrcFormatError(
                    f"{self.path}: container version {head[4]}, this reader "
                    f"reads {STORE_VERSION} — re-record the trace"
                )
            raise RtrcFormatError(f"{self.path}: not an .rtrc file (bad magic)")
        self.meta, self.index = self._load_index()
        if strict and self.truncated:
            self._f.close()
            raise RtrcFormatError(
                f"{self.path}: truncated .rtrc container (missing footer)"
            )

    # -- layout ----------------------------------------------------------
    def _read_frame(self, offset: int) -> Tuple[bytes, bytes]:
        """(tag, inflated payload) of the frame at ``offset``; ``b""`` at EOF."""
        try:
            self._f.seek(offset)
            tag = self._f.read(1)
            if not tag:
                return tag, b""
            (clen,) = _LEN.unpack(self._f.read(_LEN.size))
            data = self._f.read(clen)
            if len(data) != clen:
                raise RtrcFormatError("frame runs past the end of the file")
            return tag, zlib.decompress(data)
        except (zlib.error, struct.error, ValueError, OSError) as exc:
            # ValueError / OSError: an offset no file position can hold
            raise RtrcFormatError(
                f"{self.path}: damaged frame at offset {offset}: {exc}"
            ) from exc

    def _read_frame_at(self, offset: int, want_tag: bytes) -> bytes:
        tag, payload = self._read_frame(offset)
        if tag != want_tag:
            raise RtrcFormatError(
                f"{self.path}: expected {want_tag!r} frame at {offset}, got {tag!r}"
            )
        return payload

    def _load_index(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        try:
            return self._load_index_from_trailer()
        except ValueError:  # RtrcFormatError or a footer/meta that is not JSON
            return self._recover_by_scan()

    def _load_index_from_trailer(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        self._f.seek(0, 2)
        end = self._f.tell()
        trailer_len = _OFF.size + len(TRAILER_MAGIC)
        if end < len(MAGIC) + trailer_len:
            raise RtrcFormatError(f"{self.path}: too short for a trailer")
        self._f.seek(end - trailer_len)
        trailer = self._f.read(trailer_len)
        if trailer[_OFF.size:] != TRAILER_MAGIC:
            raise RtrcFormatError(f"{self.path}: missing trailer magic")
        (footer_off,) = _OFF.unpack(trailer[: _OFF.size])
        footer = json.loads(self._read_frame_at(footer_off, _TAG_FOOTER))
        meta = json.loads(self._read_frame_at(len(MAGIC), _TAG_META))
        return meta, footer

    def _recover_by_scan(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Rebuild what we can from complete frames (truncated file)."""
        self.truncated = True
        meta: Dict[str, Any] = {}
        blocks: List[Dict[str, Any]] = []
        events = 0
        offset = len(MAGIC)
        try:
            while True:
                tag, payload = self._read_frame(offset)
                if tag == _TAG_META:
                    meta = json.loads(payload)
                elif tag == _TAG_BLOCK:
                    recs = _decode_block(payload)
                    ts = [_index_time(r["t"]) for r in recs]
                    kc: Counter = Counter(r["kind"] for r in recs)
                    blocks.append(
                        {
                            "o": offset,
                            "n": len(recs),
                            "t0": min(ts) if ts else None,
                            "t1": max(ts) if ts else None,
                            "k": dict(sorted(kc.items())),
                            "s": sorted({r["src"] for r in recs}),
                        }
                    )
                    events += len(recs)
                elif tag == _TAG_FOOTER:
                    # complete footer found mid-scan: the trailer alone
                    # was damaged; trust the footer.
                    footer = json.loads(payload)
                    self.truncated = False
                    return meta, footer
                else:
                    break
                offset = self._f.tell()
        except _DAMAGE:
            pass  # the scan ends at the last frame that read and decoded
        return meta, {"store": STORE_VERSION, "events": events, "blocks": blocks}

    # -- queries ---------------------------------------------------------
    @property
    def blocks_total(self) -> int:
        return len(self.index.get("blocks", []))

    @property
    def events_total(self) -> int:
        return int(self.index.get("events", 0))

    def kind_counts(self) -> Dict[str, int]:
        """Aggregate per-kind event counts, from the index alone."""
        total: Counter = Counter()
        for blk in self.index.get("blocks", []):
            total.update(blk.get("k", {}))
        return dict(sorted(total.items()))

    def srcs(self) -> List[str]:
        out: set = set()
        for blk in self.index.get("blocks", []):
            out.update(blk.get("s", []))
        return sorted(out)

    def time_range(self) -> Tuple[Optional[float], Optional[float]]:
        t0s = [b["t0"] for b in self.index.get("blocks", []) if b.get("t0") is not None]
        t1s = [b["t1"] for b in self.index.get("blocks", []) if b.get("t1") is not None]
        return (min(t0s) if t0s else None, max(t1s) if t1s else None)

    def stats(self) -> Dict[str, Any]:
        """Index-only summary (no block is decompressed)."""
        t0, t1 = self.time_range()
        return {
            "path": str(self.path),
            "events": self.events_total,
            "blocks": self.blocks_total,
            "t0": t0,
            "t1": t1,
            "kinds": self.kind_counts(),
            "srcs": self.srcs(),
            "truncated": self.truncated,
        }

    def scan_counters(self) -> Dict[str, int]:
        """How much of the file the queries so far inflated."""
        return {
            "blocks_read": self.blocks_read,
            "blocks_skipped": self.blocks_skipped,
            "blocks_total": self.blocks_total,
        }

    def _block_matches(
        self,
        blk: Dict[str, Any],
        kinds: Optional[frozenset],
        srcs: Optional[frozenset],
        t0: Optional[float],
        t1: Optional[float],
    ) -> bool:
        if kinds is not None and not kinds.intersection(blk.get("k", {})):
            return False
        if srcs is not None and not srcs.intersection(blk.get("s", [])):
            return False
        b0, b1 = blk.get("t0"), blk.get("t1")
        if t0 is not None and b1 is not None and b1 < t0:
            return False
        if t1 is not None and b0 is not None and b0 > t1:
            return False
        return True

    def iter_events(
        self,
        kinds: Optional[Iterable[str]] = None,
        srcs: Optional[Iterable[str]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        include_meta: bool = False,
    ) -> Iterator[Dict[str, Any]]:
        """Yield flat event dicts, skipping non-matching blocks via index."""
        kindset = frozenset(kinds) if kinds is not None else None
        srcset = frozenset(srcs) if srcs is not None else None
        if include_meta and self.meta:
            yield self.meta
        for blk in self.index.get("blocks", []):
            if not self._block_matches(blk, kindset, srcset, t0, t1):
                self.blocks_skipped += 1
                continue
            try:
                recs = _decode_block(self._read_frame_at(blk["o"], _TAG_BLOCK))
            except _DAMAGE as exc:
                self.truncated = True
                if self.strict:
                    raise RtrcFormatError(
                        f"{self.path}: damaged block at offset {blk['o']}: {exc}"
                    ) from exc
                return
            self.blocks_read += 1
            for rec in recs:
                if kindset is not None and rec["kind"] not in kindset:
                    continue
                if srcset is not None and rec["src"] not in srcset:
                    continue
                t = rec["t"]
                if t0 is not None and t < t0:
                    continue
                if t1 is not None and t > t1:
                    continue
                yield rec

    def event_stream(self) -> BinaryIO:
        """Binary stream from the first block frame to EOF.

        Everything past the meta frame is a pure function of the event
        stream (framing and zlib are deterministic), so two containers
        with identical events are byte-identical from here on — which is
        what the determinism sanitizer's streaming diff exploits.
        """
        self._read_frame_at(len(MAGIC), _TAG_META)  # leaves _f just past it
        f = open(self.path, "rb")
        f.seek(self._f.tell())
        return f

    def close(self) -> None:
        self._f.close()

    def __enter__(self) -> "RtrcReader":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
