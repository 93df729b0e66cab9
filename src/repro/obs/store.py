"""Compact, indexed, streaming binary trace store (``.rtrc``).

Flat JSONL is the right interchange format, but a
``--trace-packets`` run of fig08 already emits a 7.1M-line file and
paper-scale scenarios (400 flows x 100 s) would make plain text
unwritable, undiffable and unqueryable.  ``.rtrc`` is the same event
stream in a framed, compressed, *indexed* container:

* events are buffered into **blocks** (default 4096 events); inside a
  block the kind/src/field-key strings are interned into per-block
  tables and each event becomes a small JSON row, so the block
  compresses to a few percent of its JSONL equivalent;
* every block is **framed** (tag byte + length + zlib payload), so a
  crash-truncated file is recoverable up to the last complete block —
  the same contract ``read_events`` gives truncated JSONL;
* a **footer index** records, per block, the byte offset, event count,
  time range, per-kind counts and src set.  Readers answer
  ``kind``/``src``/time-range queries by *skipping* blocks whose index
  entry cannot match — ``repro-udt trace query`` never inflates what it
  does not need — and ``stats()`` comes from the index alone.

Everything is deterministic — block boundaries depend only on the event
stream, compression is single-threaded zlib at a fixed level — so the
byte-identity guarantees the sweep runner and determinism sanitizer make
for JSONL traces carry over to ``.rtrc`` unchanged.

File layout::

    magic   b"RTRC\\x01\\n"
    frame   b"M" | u32 len | zlib(trace.meta JSON)      (exactly one)
    frame   b"B" | u32 len | zlib(block JSON)           (zero or more)
    frame   b"F" | u32 len | zlib(footer-index JSON)    (exactly one)
    trailer u64 footer-frame offset | b"RTRCIDX\\x01"

Block JSON: ``{"k": [kinds], "s": [srcs], "f": [field keys],
"e": [[t, kind_i, src_i, key_i, value, ...], ...]}``.  Decoding a row
rebuilds the flat event dict in its original key order, so converting
JSONL to ``.rtrc`` and back is byte-exact on traces written by the
JSONL writer.

This module is the codec only, a leaf: it never looks at a file suffix
and knows nothing of the module above it that picks the format and wraps
the reader, writer and converter every consumer uses (CI greps for an
import pointing that way).
"""

from __future__ import annotations

import json
import struct
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

from repro.obs.bus import SCHEMA_VERSION

MAGIC = b"RTRC\x01\n"
TRAILER_MAGIC = b"RTRCIDX\x01"
#: Container layout version (independent of the event schema version).
STORE_VERSION = 1
#: Frame tags.
_TAG_META, _TAG_BLOCK, _TAG_FOOTER = b"M", b"B", b"F"
_LEN = struct.Struct("<I")
_OFF = struct.Struct("<Q")
#: Events buffered per block before compression.
DEFAULT_BLOCK_EVENTS = 4096
#: zlib level; fixed so identical event streams give identical bytes.
COMPRESSION_LEVEL = 6

_dumps = json.dumps


def dump_record(rec: Dict[str, Any]) -> str:
    """One record as its canonical JSONL line (no trailing newline)."""
    return _dumps(rec, separators=(",", ":"), default=str)


class RtrcFormatError(ValueError):
    """The file is not a well-formed ``.rtrc`` container."""


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class RtrcWriter:
    """Streams bus events into an ``.rtrc`` container.

    Same surface as the JSONL writer (``write_meta`` / ``on_event`` /
    ``feed`` / ``close`` / ``events_written``), so ``trace_session`` and
    ``convert_trace`` drive either writer interchangeably.
    """

    def __init__(
        self,
        path: Union[str, Path],
        block_events: int = DEFAULT_BLOCK_EVENTS,
        level: int = COMPRESSION_LEVEL,
    ):
        if block_events < 1:
            raise ValueError("block_events must be >= 1")
        self.path = Path(path)
        self._out: BinaryIO = open(self.path, "wb")
        self._out.write(MAGIC)
        self.block_events = block_events
        self.level = level
        self.events_written = 0
        self._meta_written = False
        self._rows: List[list] = []
        # per-pending-block interning state
        self._kinds: List[str] = []
        self._kind_ids: Dict[str, int] = {}
        self._srcs: List[str] = []
        self._src_ids: Dict[str, int] = {}
        self._fields: List[str] = []
        self._field_ids: Dict[str, int] = {}
        self._index: List[Dict[str, Any]] = []
        self._closed = False

    # -- meta ------------------------------------------------------------
    def write_meta(self, **meta: Any) -> None:
        """Write the ``trace.meta`` record (before any event)."""
        rec = {"kind": "trace.meta", "schema": SCHEMA_VERSION}
        rec.update(meta)
        self._write_meta_record(rec)

    def _write_meta_record(self, rec: Dict[str, Any]) -> None:
        """Store an already-shaped meta record verbatim (conversion path)."""
        if self._meta_written:
            raise RuntimeError("trace.meta already written")
        self._write_frame(_TAG_META, dump_record(rec))
        self._meta_written = True

    # -- event intake ----------------------------------------------------
    def on_event(self, ev: Any) -> None:
        """Bus subscriber entry point (takes a :class:`repro.obs.bus.Event`)."""
        self._append(ev.t, ev.kind, ev.src, ev.fields.items())

    def feed(self, rec: Dict[str, Any]) -> None:
        """Ingest a flat JSONL-shaped record (the conversion path).

        ``trace.meta`` records route to the meta frame; everything else
        is stored as an event with its field order preserved.
        """
        if rec.get("kind") == "trace.meta":
            self._write_meta_record(rec)
            return
        self._append(
            rec.get("t", 0.0),
            rec.get("kind", ""),
            rec.get("src", ""),
            ((k, v) for k, v in rec.items() if k not in ("t", "kind", "src")),
        )

    def _append(
        self, t: float, kind: str, src: str, fields: Iterable[Tuple[str, Any]]
    ) -> None:
        if not self._meta_written:
            self.write_meta()
        ki = self._kind_ids.get(kind)
        if ki is None:
            ki = self._kind_ids[kind] = len(self._kinds)
            self._kinds.append(kind)
        si = self._src_ids.get(src)
        if si is None:
            si = self._src_ids[src] = len(self._srcs)
            self._srcs.append(src)
        row: list = [t, ki, si]
        field_ids = self._field_ids
        for key, value in fields:
            fi = field_ids.get(key)
            if fi is None:
                fi = field_ids[key] = len(self._fields)
                self._fields.append(key)
            row.append(fi)
            row.append(value)
        self._rows.append(row)
        self.events_written += 1
        if len(self._rows) >= self.block_events:
            self._flush_block()

    # -- framing ---------------------------------------------------------
    def _write_frame(self, tag: bytes, payload: str) -> int:
        """Compress + frame one payload; returns the frame's offset."""
        offset = self._out.tell()
        data = zlib.compress(payload.encode("utf-8"), self.level)
        self._out.write(tag)
        self._out.write(_LEN.pack(len(data)))
        self._out.write(data)
        return offset

    def _flush_block(self) -> None:
        if not self._rows:
            return
        rows, kinds = self._rows, self._kinds
        payload = _dumps(
            {"k": kinds, "s": self._srcs, "f": self._fields, "e": rows},
            separators=(",", ":"),
            default=str,
        )
        offset = self._write_frame(_TAG_BLOCK, payload)
        # Block stats are derived here, once per block, rather than
        # maintained per event — the append path stays lean.
        counts = Counter(kinds[r[1]] for r in rows)
        self._index.append(
            {
                "o": offset,
                "n": len(rows),
                "t0": min(r[0] for r in rows),
                "t1": max(r[0] for r in rows),
                "k": dict(sorted(counts.items())),
                "s": sorted(self._srcs),
            }
        )
        self._rows = []
        self._kinds, self._kind_ids = [], {}
        self._srcs, self._src_ids = [], {}
        self._fields, self._field_ids = [], {}

    def close(self) -> None:
        if self._closed:
            return
        if not self._meta_written:
            self.write_meta()
        self._flush_block()
        footer = {
            "store": STORE_VERSION,
            "events": self.events_written,
            "blocks": self._index,
        }
        offset = self._write_frame(
            _TAG_FOOTER, _dumps(footer, separators=(",", ":"))
        )
        self._out.write(_OFF.pack(offset))
        self._out.write(TRAILER_MAGIC)
        self._out.close()
        self._closed = True


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


def _decode_block(payload: bytes) -> Iterator[Dict[str, Any]]:
    """Yield flat event dicts from one decompressed block payload."""
    block = json.loads(payload)
    kinds, srcs, fields, rows = block["k"], block["s"], block["f"], block["e"]
    for row in rows:
        rec = {"t": row[0], "kind": kinds[row[1]], "src": srcs[row[2]]}
        for i in range(3, len(row), 2):
            rec[fields[row[i]]] = row[i + 1]
        yield rec


class RtrcReader:
    """Indexed reader over an ``.rtrc`` container.

    ``iter_events`` uses the footer index to *skip* whole blocks that
    cannot match the requested kinds/srcs/time range — the counters
    :attr:`blocks_read` / :attr:`blocks_skipped` record exactly how much
    of the file was inflated, which is what the query CLI reports and
    the tests assert on.  A file with a missing or corrupt footer
    (crash-truncated run) degrades to a sequential frame scan over the
    complete blocks, mirroring the JSONL reader's tolerance for a
    truncated last line; :attr:`truncated` reports that this happened
    (``strict=True`` raises :class:`RtrcFormatError` instead).
    """

    def __init__(self, path: Union[str, Path], strict: bool = False):
        self.path = Path(path)
        self._f: BinaryIO = open(self.path, "rb")
        self.truncated = False
        self.blocks_read = 0
        self.blocks_skipped = 0
        head = self._f.read(len(MAGIC))
        if head != MAGIC:
            self._f.close()
            raise RtrcFormatError(f"{self.path}: not an .rtrc file (bad magic)")
        self.meta, self.index = self._load_index()
        if strict and self.truncated:
            self._f.close()
            raise RtrcFormatError(
                f"{self.path}: truncated .rtrc container (missing footer)"
            )

    # -- layout ----------------------------------------------------------
    def _read_frame_at(self, offset: int, want_tag: bytes) -> bytes:
        self._f.seek(offset)
        tag = self._f.read(1)
        if tag != want_tag:
            raise RtrcFormatError(
                f"{self.path}: expected {want_tag!r} frame at {offset}, got {tag!r}"
            )
        (clen,) = _LEN.unpack(self._f.read(4))
        data = self._f.read(clen)
        if len(data) != clen:
            raise RtrcFormatError(f"{self.path}: truncated frame at {offset}")
        return zlib.decompress(data)

    def _load_index(self) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        try:
            return self._load_index_from_trailer()
        except (RtrcFormatError, OSError, struct.error, zlib.error, ValueError):
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
        self._f.seek(offset)
        while True:
            tag = self._f.read(1)
            if not tag:
                break
            raw_len = self._f.read(4)
            if len(raw_len) != 4:
                break
            (clen,) = _LEN.unpack(raw_len)
            data = self._f.read(clen)
            if len(data) != clen:
                break
            try:
                payload = zlib.decompress(data)
            except zlib.error:
                break
            if tag == _TAG_META:
                try:
                    meta = json.loads(payload)
                except ValueError:
                    break
            elif tag == _TAG_BLOCK:
                try:
                    recs = list(_decode_block(payload))
                except (ValueError, KeyError, IndexError, TypeError):
                    break
                ts = [r["t"] for r in recs]
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
                # complete footer found mid-scan: the trailer alone was
                # damaged; trust the footer.
                try:
                    footer = json.loads(payload)
                    self.truncated = False
                    return meta, footer
                except ValueError:
                    break
            else:
                break
            offset = self._f.tell()
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
            "format": "rtrc",
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
            payload = self._read_frame_at(blk["o"], _TAG_BLOCK)
            self.blocks_read += 1
            for rec in _decode_block(payload):
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

    def iter_jsonl(self, **query: Any) -> Iterator[str]:
        """Matching events as canonical JSONL lines (no trailing newline)."""
        for rec in self.iter_events(**query):
            yield dump_record(rec)

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
