"""Loss-forensics report rendering (`repro-udt report <trace.jsonl>`).

Takes a :class:`~repro.obs.spans.SpanSet` reconstructed from a JSONL
trace and renders per-connection forensics — drops by link and cause,
retransmission chains, queue-wait percentiles, receiver loss events —
as an aligned text report or a machine-readable dict.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.spans import SpanSet
from repro.sim.engine import format_vtime

REPORT_SCHEMA = 1


def report_dict(spanset: SpanSet, **meta: Any) -> Dict[str, Any]:
    """Machine-readable form of the whole report (JSON-stable keys)."""
    d: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "kind": "trace.report",
        "trace_meta": spanset.meta,
        "events_consumed": spanset.events_consumed,
        "t_max": spanset.t_max,
        "connections": [spanset.forensics(c) for c in spanset.connections()],
        "drops_total": spanset.total_drops(),
    }
    d.update(meta)
    return d


def summary_only_hint(spanset: SpanSet) -> Optional[str]:
    """A re-run hint when the trace carries no packet-lifecycle detail.

    Returns None when the trace has spans to report on, or when it was
    recorded with packet detail enabled (an empty-but-detailed trace is
    a real finding, not a recording mistake).
    """
    # loss/drop summary events attribute connections even without the
    # detail tier; only per-seq spans prove packet detail was recorded
    if any(spanset.spans.values()):
        return None
    if (spanset.meta or {}).get("packet_detail"):
        return None
    return (
        "this trace has no packet-detail spans — re-record it with "
        "--trace-packets (e.g. repro-udt run <exp> --trace t.jsonl "
        "--trace-packets) to enable loss forensics"
    )


def _fmt_wait(seconds: float) -> str:
    if seconds < 1.0:
        return f"{seconds*1e3:.3f}ms"
    return f"{seconds:.3f}s"


def render_report(spanset: SpanSet, top_chains: int = 6) -> str:
    """Human-facing per-connection loss-forensics report."""
    lines: List[str] = ["== packet-lifecycle report =="]
    meta = spanset.meta or {}
    gen = meta.get("generator")
    exps = meta.get("experiments")
    header = f"{spanset.events_consumed} events over {format_vtime(spanset.t_max)} virtual"
    if gen:
        header += f", generator={gen}"
    if exps:
        header += f", experiments={exps}"
    lines.append(header)
    conns = spanset.connections()
    if not conns:
        lines.append(
            "no packet-lifecycle events found — was the trace recorded "
            "with --trace-packets (bus detail tier)?"
        )
    for conn in conns:
        f = spanset.forensics(conn)
        lines.append(f"-- connection {conn} --")
        if f["pkts_sent"]:
            retx_pct = 100.0 * f["retransmissions"] / max(1, f["transmissions"])
            lines.append(
                f"  sent {f['pkts_sent']} unique seqs in {f['transmissions']} "
                f"transmissions ({f['retransmissions']} retx, {retx_pct:.1f}%)"
            )
            lines.append(
                f"  delivered {f['delivered']}  acked {f['acked']}  "
                f"never-delivered {f['dropped']}  in-flight-at-end "
                f"{f['in_flight_at_end']}"
            )
            chain_items = sorted(
                ((int(k), v) for k, v in f["chains"].items()), key=lambda kv: kv[0]
            )
            if chain_items:
                shown = chain_items[:top_chains]
                chain_s = "  ".join(f"{k}x:{v}" for k, v in shown)
                if len(chain_items) > len(shown):
                    chain_s += "  ..."
                lines.append(
                    f"  retransmission chains (sends per seq): {chain_s}  "
                    f"(longest {f['max_chain']})"
                )
        if f["drops_by_link"]:
            lines.append("  drops by link and cause:")
            for link, by_cause in sorted(f["drops_by_link"].items()):
                for reason, n in sorted(by_cause.items()):
                    lines.append(f"    {link:<16s} {reason:<7s} {n}")
        if f["buffer_drops"]:
            lines.append(f"  receive-buffer drops: {f['buffer_drops']}")
        for link, qw in sorted(f["queue_wait"].items()):
            lines.append(
                f"  queue wait on {link}: p50={_fmt_wait(qw['p50'])} "
                f"p90={_fmt_wait(qw['p90'])} p99={_fmt_wait(qw['p99'])} "
                f"max={_fmt_wait(qw['max'])} (n={qw['count']})"
            )
        le = f["loss_events"]
        if le["count"]:
            lines.append(
                f"  receiver loss events: {le['count']} "
                f"(min {le['min']}, mean {le['mean']:.1f}, max {le['max']} pkts)"
            )
        naks = f["naks"]
        if naks["received"] or f["exp_timeouts"]:
            lines.append(
                f"  NAKs received: {naks['received']} covering "
                f"{naks['pkts_reported']} pkts; EXP timeouts: {f['exp_timeouts']}"
            )
        done = spanset.flow_done.get(conn)
        if done:
            lines.append(
                f"  flow completed at {format_vtime(done['t'])} "
                f"({done['bytes']} bytes in {format_vtime(done['elapsed'] or 0.0)})"
            )
    totals = spanset.total_drops()
    if totals:
        total_n = sum(n for by_cause in totals.values() for n in by_cause.values())
        lines.append(f"-- all wire drops ({total_n}) --")
        for link, by_cause in totals.items():
            for reason, n in sorted(by_cause.items()):
                lines.append(f"  {link:<16s} {reason:<7s} {n}")
    return "\n".join(lines)
