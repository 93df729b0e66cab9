"""``repro-udt trace`` — query and inspect ``.rtrc`` telemetry traces.

Two sub-commands, each a thin wrapper over
:class:`~repro.obs.store.RtrcReader`:

* ``query`` — filter by kind / src / time range and print matching
  events as JSON lines, the only JSON-lines output of the tree
  (redirect stdout to keep them).  The footer index is used to *skip*
  blocks that cannot match; the reader's scan tally is printed to
  stderr so you can see the index working.
* ``info`` — trace summary (event counts per kind, srcs, time range),
  from the index alone — no event block is decompressed.

Typical forensics session::

    repro-udt run fig08 --trace t.rtrc --trace-packets
    repro-udt trace info t.rtrc
    repro-udt trace query t.rtrc --kind link.drop --stats
    repro-udt trace query t.rtrc --kind cc.sample --src udt0-snd \
        --t0 2.0 --t1 2.5
    repro-udt trace query t.rtrc --kind pkt.snd --tail 20
    repro-udt trace query t.rtrc > t.jsonl      # for jq and friends
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter, deque
from itertools import islice
from typing import Optional

from repro.obs.store import RtrcFormatError, RtrcReader, dump_record


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="trace_cmd", required=True)

    q = sub.add_parser(
        "query",
        help="filter a trace by kind/src/time and print matching events "
        "as JSON lines (uses the block index to skip non-matching blocks)",
    )
    q.add_argument("trace", help="trace file (.rtrc)")
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

    i = sub.add_parser(
        "info",
        help="trace summary: events per kind, srcs, time range (answered "
        "from the index without reading blocks)",
    )
    i.add_argument("trace", help="trace file (.rtrc)")
    i.add_argument("--json", action="store_true", help="machine-readable output")


def _cmd_query(args: argparse.Namespace) -> int:
    counts: Counter = Counter()
    with RtrcReader(args.trace) as reader:
        tail: Optional[deque] = (
            deque(maxlen=args.tail) if args.tail is not None else None
        )
        events = reader.iter_events(
            kinds=args.kind, srcs=args.src, t0=args.t0, t1=args.t1
        )
        for rec in islice(events, args.head):
            counts[rec.get("kind", "?")] += 1
            if args.stats:
                continue
            if tail is not None:
                tail.append(rec)
            else:
                print(dump_record(rec))
        for rec in tail or ():
            print(dump_record(rec))
        tally = reader.scan_counters()

    if args.stats:
        for kind in sorted(counts):
            print(f"{kind:<20s} {counts[kind]}")

    status = f"[query] {sum(counts.values())} matching event(s); " + ", ".join(
        f"{key.replace('_', ' ')} {n}" for key, n in tally.items()
    )
    print(status, file=sys.stderr)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    with RtrcReader(args.trace) as reader:
        stats = dict(reader.stats(), meta=reader.meta)
    if args.json:
        print(json.dumps(stats, indent=2, default=str))
        return 0
    print(f"== trace: {stats['path']} ==")
    blocks = f" in {stats['blocks']} block(s)"
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


def run_trace(args: argparse.Namespace) -> int:
    try:
        if args.trace_cmd == "query":
            return _cmd_query(args)
        return _cmd_info(args)
    except (FileNotFoundError, RtrcFormatError) as exc:
        # a missing file, or one that is not a container this reader reads
        print(f"error: {exc}", file=sys.stderr)
        return 2
