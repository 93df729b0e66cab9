"""Command-line entry point: ``python -m repro`` / ``repro-udt``.

    repro-udt list                  # show all experiments (id, artefact,
                                    # one-line description)
    repro-udt run fig02             # run one experiment, print its table
    repro-udt run all               # run everything (slow)
    repro-udt run fig04 --trace out.rtrc
                                    # fully traced run: indexed binary
                                    # event trace (CC timelines, drops,
                                    # EXP events)
    repro-udt run fig08 --trace t.rtrc --trace-packets
                                    # + per-packet lifecycle events for
                                    # span reconstruction
    repro-udt explain fig08 --scale 0.05
                                    # one screen on one run: wall time,
                                    # cache hit or why it missed, time by
                                    # layer, events by kind, fidelity
                                    # tiers, last CC state, past runtimes
    repro-udt sweep --jobs 8        # run every experiment in parallel
                                    # worker processes with digest-keyed
                                    # result caching (unchanged
                                    # experiments are skipped); timings
                                    # merge into BENCH_runtime.json;
                                    # long cells print [progress] lines
                                    # (virtual time, events/s, ETA)
    repro-udt sweep --only fig02,fig08 --scale 0.05 --force
                                    # re-run a subset at smoke scale
    repro-udt trace query t.rtrc --kind link.drop --stats
                                    # indexed trace query: filter by
                                    # kind/src/time without a full scan
    repro-udt trace query t.rtrc > t.jsonl
                                    # the trace as JSON lines, for jq
    repro-udt report t.rtrc         # loss-forensics report from a trace
    repro-udt lint                  # protocol-invariant static analysis
                                    # over the repro tree (seqno-taint,
                                    # sansio-purity, event-schema); the
                                    # gate is zero findings
    repro-udt lint --sanitize fig02 --set duration=5
                                    # + determinism sanitizer: the
                                    # experiment runs twice with perturbed
                                    # tie-breaking and hash seeds, traces
                                    # must be byte-identical
    repro-udt conform t.rtrc        # event-order conformance: the trace
                                    # is checked against the protocol
                                    # model statically extracted from
                                    # udt/core.py guard structure

``--scale`` (default 0.3) scales experiment durations; ``--scale 1``
runs the paper's published durations.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from typing import List, Optional

from repro.experiments import get_experiment, list_experiments
from repro.experiments.common import RunArgs, add_run_flags, parse_run_args, traced
from repro.obs.export import check_trace_path


def _resolve_run(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> "tuple[list, dict, RunArgs]":
    """The experiments, runner keywords and run arguments ``run`` and
    ``explain`` were asked for.  A usage error (an unknown id, a ``--set``
    key the runner does not take, a bad run flag) exits 2 here, before
    anything is opened: entering ``traced()`` truncates its file."""
    from repro.analysis.cli import parse_overrides

    kwargs = parse_overrides(args.overrides, parser)
    run_args = parse_run_args(args, parser)
    if args.exp_id == "all":
        return list_experiments(), {}, run_args
    try:
        exp = get_experiment(args.exp_id)
    except KeyError as exc:
        parser.error(exc.args[0])
    accepted = set(inspect.signature(exp.runner).parameters) - {"run_args"}
    unknown = sorted(set(kwargs) - accepted)
    if unknown:
        parser.error(
            f"{args.exp_id} takes no keyword {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(accepted))}"
        )
    return [exp], kwargs, run_args


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    exps, kwargs, run_args = _resolve_run(args, parser)
    if args.trace:
        try:
            check_trace_path(args.trace)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    with traced(
        args.trace,
        packets=args.trace_packets,
        generator="repro-udt",
        experiments=[exp.exp_id for exp in exps],
    ) as session:
        for exp in exps:
            t0 = time.perf_counter()
            result = exp.runner(**kwargs, run_args=run_args)
            dt = time.perf_counter() - t0
            result.print()
            print(f"[{exp.exp_id} finished in {dt:.1f}s wall]\n")
    if args.trace:
        print(f"[trace: {session.events_written} events -> {args.trace}]")
    return 0


def _cmd_explain(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run one experiment in process, profiled and traced to a temporary
    ``.rtrc``, and print the one screen :mod:`repro.obs.explain` renders.
    The cache is only looked at, never written, and the trace is deleted."""
    import tempfile
    from pathlib import Path

    from repro.obs.explain import cache_status, render_explain
    from repro.obs.prof import SimProfiler

    if args.exp_id == "all":
        parser.error("explain takes one experiment id, not 'all'")
    (exp,), kwargs, run_args = _resolve_run(args, parser)
    cache = cache_status(exp.exp_id, run_args, kwargs)
    prof = SimProfiler()
    with tempfile.TemporaryDirectory(prefix="repro-explain-") as tmp:
        trace = Path(tmp) / f"{exp.exp_id}.rtrc"
        t0 = time.perf_counter()
        with prof.activate(), traced(
            str(trace), generator="repro-udt explain", experiments=[exp.exp_id]
        ):
            exp.runner(**kwargs, run_args=run_args)
        wall = time.perf_counter() - t0
        print(render_explain(exp.exp_id, run_args, wall, cache, prof, trace))
    return 0


def _cmd_sweep(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    from repro.runner.sweep import run_sweep, update_bench

    only = None
    if args.only:
        only = [s for s in args.only.replace(" ", "").split(",") if s]
    try:
        report = run_sweep(
            only=only,
            jobs=args.jobs,
            scale=args.scale,
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            force=args.force,
            trace_dir=Path(args.trace_dir) if args.trace_dir else None,
            trace_packets=args.trace_packets,
            fidelity=args.fidelity,
            emit=print,
        )
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    print(report.to_text())
    if not args.no_bench:
        path = update_bench(
            report, Path(args.bench) if args.bench else None
        )
        print(f"[sweep timings merged into {path}]")
    return 0 if report.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report, report_dict, summary_only_hint
    from repro.obs.spans import build_spans
    from repro.obs.store import RtrcFormatError

    try:
        spanset = build_spans(args.trace)
    except (FileNotFoundError, RtrcFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    hint = summary_only_hint(spanset)
    if hint:
        # summary-only trace: say how to get forensics, succeed anyway
        print(f"[report] {hint}")
        return 0
    print(render_report(spanset))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report_dict(spanset), f, indent=2, default=str)
            f.write("\n")
        print(f"[report JSON -> {args.json}]")
    return 0


def build_parser() -> "tuple[argparse.ArgumentParser, dict]":
    """Build the ``repro-udt`` argument parser.

    Returns ``(parser, subparsers)`` where ``subparsers`` maps each
    subcommand name to its own ArgumentParser.  The CLI-reference
    generator (:mod:`repro.analysis.clidoc`) and the docs checker
    (:mod:`repro.analysis.docscheck`) walk this tree, which is what
    keeps docs/API.md structurally unable to drift from the real CLI.
    """
    parser = argparse.ArgumentParser(
        prog="repro-udt",
        description="Reproduce the UDT (SC'04) evaluation tables and figures.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    listp = sub.add_parser("list", help="list available experiments")

    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("exp_id", help="experiment id from 'list', or 'all'")
    runp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a runner keyword, e.g. --set duration=60 "
        "--set rate_bps=1e9 (repeatable; ignored with 'all')",
    )
    runp.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a telemetry trace (CC-state timelines, loss/EXP "
        "events, link drops) of the whole run to PATH, an .rtrc file "
        "(indexed binary store; 'repro-udt trace query' prints it as "
        "JSON lines)",
    )
    runp.add_argument(
        "--trace-packets",
        action="store_true",
        help="include per-packet lifecycle events (pkt.snd/pkt.rcv/"
        "link.enq/link.deq) in the trace so 'repro-udt report' can "
        "reconstruct packet spans; much larger traces",
    )
    add_run_flags(runp, tie_break=True)

    explainp = sub.add_parser(
        "explain",
        help="run one experiment profiled and traced, and print one screen: "
        "wall time, cache hit or miss cause, time by layer, events by kind, "
        "fidelity-tier residency, last CC state, recent runtimes",
    )
    explainp.add_argument("exp_id", help="experiment id from 'list'")
    explainp.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a runner keyword, as for 'run' (repeatable)",
    )
    add_run_flags(explainp, tie_break=True)

    sweepp = sub.add_parser(
        "sweep",
        help="run every experiment in parallel worker processes with "
        "digest-keyed result caching; merges timings into "
        "benchmarks/results/BENCH_runtime.json (see docs/PERFORMANCE.md); "
        "hybrid results cache and bench apart from packet ones",
    )
    sweepp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to keep in flight (default 1)",
    )
    add_run_flags(sweepp)
    sweepp.add_argument(
        "--only",
        default=None,
        metavar="EXP,...",
        help="comma-separated experiment ids to sweep (default: all)",
    )
    sweepp.add_argument(
        "--force",
        action="store_true",
        help="ignore cache hits (results are still stored)",
    )
    sweepp.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default $REPRO_CACHE_DIR or .repro-cache)",
    )
    sweepp.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write per-experiment traces to DIR/<exp>.rtrc "
        "(implies execution: trace runs never reuse the cache)",
    )
    sweepp.add_argument(
        "--trace-packets",
        action="store_true",
        help="with --trace-dir, include per-packet lifecycle events",
    )
    sweepp.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help="runtime ledger to merge into (default "
        "benchmarks/results/BENCH_runtime.json)",
    )
    sweepp.add_argument(
        "--no-bench",
        action="store_true",
        help="do not touch the runtime ledger",
    )

    repp = sub.add_parser(
        "report",
        help="packet-lifecycle loss forensics from a trace "
        "(record with: run ... --trace t.rtrc --trace-packets)",
    )
    repp.add_argument("trace", help="trace file from a traced run")
    repp.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )

    tracep = sub.add_parser(
        "trace",
        help="query and inspect .rtrc telemetry traces; queries answer "
        "from the block index without a full scan (see "
        "docs/OBSERVABILITY.md)",
    )
    from repro.obs.tracecli import add_trace_arguments

    add_trace_arguments(tracep)

    lintp = sub.add_parser(
        "lint",
        help="protocol-invariant static analysis (and optional determinism "
        "sanitizer) over the repro tree; see docs/ANALYSIS.md",
    )
    from repro.analysis.cli import add_conform_arguments, add_lint_arguments

    add_lint_arguments(lintp)
    add_run_flags(lintp)

    confp = sub.add_parser(
        "conform",
        help="check recorded traces against the statically-extracted "
        "protocol model (analysis/protocol_model.json); see docs/ANALYSIS.md",
    )
    add_conform_arguments(confp)

    return parser, {
        "list": listp,
        "run": runp,
        "explain": explainp,
        "sweep": sweepp,
        "report": repp,
        "trace": tracep,
        "lint": lintp,
        "conform": confp,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser, subs = build_parser()
    args = parser.parse_args(argv)

    if args.cmd == "list":
        exps = list_experiments()
        id_w = max(len(e.exp_id) for e in exps)
        art_w = max(len(e.paper_artefact) for e in exps)
        for exp in exps:
            print(
                f"{exp.exp_id:<{id_w}}  {exp.paper_artefact:<{art_w}}  "
                f"{exp.description}"
            )
        return 0
    if args.cmd == "sweep":
        return _cmd_sweep(args, parser)
    if args.cmd == "report":
        return _cmd_report(args)
    if args.cmd == "explain":
        return _cmd_explain(args, parser)
    if args.cmd == "trace":
        from repro.obs.tracecli import run_trace

        return run_trace(args)
    if args.cmd == "lint":
        from repro.analysis.cli import run_lint

        return run_lint(args, subs["lint"])
    if args.cmd == "conform":
        from repro.analysis.cli import run_conform

        return run_conform(args, subs["conform"])
    return _cmd_run(args, parser)


if __name__ == "__main__":
    sys.exit(main())
