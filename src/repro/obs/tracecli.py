"""``repro-udt trace`` — query, inspect and convert telemetry traces.

Three sub-commands over either trace format (``.jsonl``, ``.rtrc``),
each a thin wrapper over the reader / writer / converter of
:mod:`repro.obs.export` — nothing here knows which format it is given:

* ``query`` — filter by kind / src / time range and print matching
  events as JSONL.  On ``.rtrc`` traces the footer index is used to
  *skip* blocks that cannot match; the reader's scan tally is printed
  to stderr so you can see the index working.
* ``info`` — trace summary (event counts per kind, srcs, time range).
  For ``.rtrc`` this comes from the index alone — no event block is
  decompressed.
* ``convert`` — re-encode a trace, any format to any.

Typical forensics session::

    repro-udt run fig08 --trace t.rtrc --trace-packets
    repro-udt trace info t.rtrc
    repro-udt trace query t.rtrc --kind link.drop --stats
    repro-udt trace query t.rtrc --kind cc.sample --src udt0-snd \
        --t0 2.0 --t1 2.5
    repro-udt trace query t.rtrc --kind pkt.snd --tail 20
    repro-udt trace convert t.rtrc t.jsonl      # for jq and friends
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, deque
from itertools import islice
from typing import Optional

from repro.obs.export import convert_trace, make_trace_writer, open_trace
from repro.obs.store import DEFAULT_BLOCK_EVENTS, RtrcFormatError, dump_record


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="trace_cmd", required=True)

    q = sub.add_parser(
        "query",
        help="filter a trace by kind/src/time and print matching events "
        "as JSONL (uses the .rtrc block index to skip non-matching blocks)",
    )
    q.add_argument("trace", help="trace file (.jsonl or .rtrc)")
    q.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="event kind to match, e.g. --kind link.drop (repeatable)",
    )
    q.add_argument(
        "--src",
        action="append",
        default=None,
        metavar="SRC",
        help="event source to match, e.g. --src udt0-snd (repeatable)",
    )
    q.add_argument(
        "--t0", type=float, default=None, metavar="T",
        help="only events with t >= T (virtual seconds)",
    )
    q.add_argument(
        "--t1", type=float, default=None, metavar="T",
        help="only events with t <= T (virtual seconds)",
    )
    q.add_argument(
        "--head", type=int, default=None, metavar="N",
        help="stop after the first N matching events",
    )
    q.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="print only the last N matching events",
    )
    q.add_argument(
        "--stats",
        action="store_true",
        help="print per-kind counts of the matching events instead of rows",
    )
    q.add_argument(
        "--to-jsonl",
        metavar="PATH",
        default=None,
        help="write matching events to PATH (a trace; the suffix selects "
        "the format) instead of stdout; the trace.meta header is carried "
        "over",
    )

    i = sub.add_parser(
        "info",
        help="trace summary: events per kind, srcs, time range (answered "
        "from the .rtrc index without reading blocks)",
    )
    i.add_argument("trace", help="trace file (.jsonl or .rtrc)")
    i.add_argument("--json", action="store_true", help="machine-readable output")

    c = sub.add_parser(
        "convert",
        help="re-encode a trace between formats (suffix decides: "
        ".jsonl/.rtrc)",
    )
    c.add_argument("src", help="input trace")
    c.add_argument("dst", help="output trace; suffix selects the format")
    c.add_argument(
        "--block-events",
        type=int,
        default=None,
        metavar="N",
        help="events per .rtrc block (default 4096); smaller blocks make "
        "time-range queries finer-grained, larger compress better",
    )


def _cmd_query(args: argparse.Namespace) -> int:
    counts: Counter = Counter()
    sink = None
    with open_trace(args.trace) as reader:
        if args.to_jsonl is not None and not args.stats:
            sink = make_trace_writer(args.to_jsonl)
            if reader.meta:
                sink.feed(reader.meta)
        emit = sink.feed if sink is not None else (lambda rec: print(dump_record(rec)))
        tail: Optional[deque] = (
            deque(maxlen=args.tail) if args.tail is not None else None
        )
        events = reader.iter_events(
            kinds=args.kind, srcs=args.src, t0=args.t0, t1=args.t1
        )
        try:
            for rec in islice(events, args.head):
                counts[rec.get("kind", "?")] += 1
                if args.stats:
                    continue
                if tail is not None:
                    tail.append(rec)
                else:
                    emit(rec)
            for rec in tail or ():
                emit(rec)
        finally:
            if sink is not None:
                sink.close()
        tally = reader.scan_counters()

    if args.stats:
        for kind in sorted(counts):
            print(f"{kind:<20s} {counts[kind]}")

    status = f"[query] {sum(counts.values())} matching event(s); " + ", ".join(
        f"{key.replace('_', ' ')} {n}" for key, n in tally.items()
    )
    if sink is not None:
        status += f" -> {args.to_jsonl}"
    print(status, file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with open_trace(args.trace) as reader:
        stats = dict(reader.stats(), meta=reader.meta)
    if args.json:
        print(json.dumps(stats, indent=2, default=str))
        return 0
    print(f"== trace: {stats['path']} ({stats['format']}) ==")
    blocks = f" in {stats['blocks']} block(s)" if "blocks" in stats else ""
    extra = " (truncated)" if stats["truncated"] else ""
    print(f"{stats['events']} events{blocks}{extra}")
    if stats["t0"] is not None:
        print(f"t = [{stats['t0']:.6f}, {stats['t1']:.6f}]s virtual")
    for kind, n in stats["kinds"].items():
        print(f"  {kind:<20s} {n}")
    srcs = stats["srcs"]
    preview = ", ".join(srcs[:8]) + (" ..." if len(srcs) > 8 else "")
    print(f"{len(srcs)} src(s): {preview}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    n = convert_trace(
        args.src, args.dst, block_events=args.block_events or DEFAULT_BLOCK_EVENTS
    )
    print(f"[convert] {n} event(s) -> {args.dst}", file=sys.stderr)
    return 0


def run_trace(args: argparse.Namespace) -> int:
    try:
        if args.trace_cmd == "query":
            return _cmd_query(args)
        if args.trace_cmd == "info":
            return _cmd_info(args)
        return _cmd_convert(args)
    except (FileNotFoundError, RtrcFormatError) as exc:
        # a missing file, or one that is not a container this reader reads
        print(f"error: {exc}", file=sys.stderr)
        return 2
