"""Command-line entry point: ``python -m repro`` / ``repro-udt``.

    repro-udt list                  # show all experiments (id, artefact,
                                    # one-line description)
    repro-udt run fig02             # run one experiment, print its table
    repro-udt run all               # run everything (slow)
    repro-udt run fig04 --trace out.jsonl --summary
                                    # fully traced run: JSONL event trace
                                    # (CC timelines, drops, EXP events)
                                    # plus a telemetry summary
    repro-udt run fig08 --trace t.jsonl --trace-packets
                                    # + per-packet lifecycle events for
                                    # span reconstruction
    repro-udt run fig02 --profile   # hot-path profile: where the wall
                                    # clock goes, written to
                                    # BENCH_profile_fig02.json
    repro-udt sweep --jobs 8        # run every experiment in parallel
                                    # worker processes with digest-keyed
                                    # result caching (unchanged
                                    # experiments are skipped); timings
                                    # merge into BENCH_runtime.json
    repro-udt sweep --only fig02,fig08 --scale 0.05 --force
                                    # re-run a subset at smoke scale
    repro-udt run fig08 --trace t.rtrc --trace-packets
                                    # indexed binary trace (~10x smaller
                                    # than JSONL, block-skippable queries)
    repro-udt trace query t.rtrc --kind link.drop --stats
                                    # indexed trace query: filter by
                                    # kind/src/time without a full scan
    repro-udt trace convert t.rtrc t.jsonl
                                    # re-encode between trace formats
    repro-udt report t.jsonl        # loss-forensics report from a trace
    repro-udt lint                  # protocol-invariant static analysis
                                    # over the repro tree (seqno-taint,
                                    # units, sansio-purity, event-schema,
                                    # vtime-determinism); the gate is
                                    # zero findings
    repro-udt lint --sanitize fig02 --set duration=5
                                    # + determinism sanitizer: the
                                    # experiment runs twice with perturbed
                                    # tie-breaking and hash seeds, traces
                                    # must be byte-identical
    repro-udt conform t.rtrc        # event-order conformance: the trace
                                    # is checked against the protocol
                                    # model statically extracted from
                                    # udt/core.py guard structure

``REPRO_SCALE`` (default 0.3) scales experiment durations; set it to 1
for the paper's published durations.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from contextlib import nullcontext
from typing import List, Optional

from repro.experiments import get_experiment, list_experiments
from repro.experiments.common import traced
from repro.obs.export import TRACE_FORMATS


def _cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.analysis.cli import parse_overrides

    # Usage errors leave before anything is opened: entering traced()
    # truncates the --trace file.
    kwargs = parse_overrides(args.overrides, parser)
    profiling = args.profile or args.profile_json is not None
    if args.exp_id == "all":
        if args.profile_json is not None:
            parser.error(
                "--profile-json PATH with 'all': every experiment would "
                "overwrite PATH; use --profile (one BENCH_profile_<exp>.json each)"
            )
        exps, kwargs = list_experiments(), {}
    else:
        try:
            exps = [get_experiment(args.exp_id)]
        except KeyError as exc:
            parser.error(exc.args[0])
        accepted = inspect.signature(exps[0].runner).parameters
        unknown = sorted(set(kwargs) - set(accepted))
        if unknown:
            parser.error(
                f"{args.exp_id} takes no keyword {', '.join(unknown)}; "
                f"accepted: {', '.join(accepted)}"
            )
    if args.fidelity:
        import os

        from repro.sim.fluid import FIDELITY_ENV

        os.environ[FIDELITY_ENV] = args.fidelity
    if profiling:
        from repro.obs.prof import SimProfiler

    with traced(
        args.trace,
        summary=args.summary,
        packets=args.trace_packets,
        generator="repro-udt",
        experiments=[exp.exp_id for exp in exps],
    ) as session:
        for exp in exps:
            prof = SimProfiler() if profiling else None
            t0 = time.perf_counter()
            with prof.activate() if prof is not None else nullcontext():
                result = exp.runner(**kwargs)
            dt = time.perf_counter() - t0
            result.print()
            print(f"[{exp.exp_id} finished in {dt:.1f}s wall]\n")
            if prof is not None:
                print(prof.to_text(top_n=args.profile_top) + "\n")
                path = args.profile_json or f"BENCH_profile_{exp.exp_id}.json"
                prof.write_json(path, exp_id=exp.exp_id, total_wall_seconds=dt)
                print(f"[profile -> {path}]\n")
    if args.trace:
        print(f"[trace: {session.events_written} events -> {args.trace}]")
    if args.summary:
        print(session.summary_text())
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
            trace_format=args.trace_format,
            progress=args.progress,
            progress_path=Path(args.progress_file) if args.progress_file else None,
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


def _cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from pathlib import Path

    if args.trace is None and not args.html:
        parser.error("report needs a trace file and/or --html OUT_DIR")

    spanset = None
    if args.trace is not None:
        from repro.obs.report import render_report, report_dict, summary_only_hint
        from repro.obs.spans import build_spans

        stats: dict = {}
        spanset = build_spans(args.trace, stats=stats)
        hint = summary_only_hint(spanset)
        if hint:
            # summary-only trace: say how to get forensics, succeed anyway
            print(f"[report] {hint}")
        else:
            print(render_report(spanset))
            if stats.get("skipped_lines"):
                print(
                    f"[warning: skipped {stats['skipped_lines']} malformed "
                    "trace line(s)]"
                )
            if args.json:
                with open(args.json, "w") as f:
                    json.dump(report_dict(spanset), f, indent=2, default=str)
                    f.write("\n")
                print(f"[report JSON -> {args.json}]")

    if args.html:
        from repro.obs.html import build_dashboard, collect_inputs

        traces = {}
        if args.trace is not None and spanset is not None:
            for exp_id in (spanset.meta or {}).get("experiments") or []:
                traces[exp_id] = Path(args.trace)
        only = None
        if args.only:
            only = [s for s in args.only.replace(" ", "").split(",") if s]
        inputs = collect_inputs(
            cache_dir=Path(args.cache_dir) if args.cache_dir else None,
            bench_path=Path(args.bench) if args.bench else None,
            ledger_path=Path(args.ledger) if args.ledger else None,
            traces=traces,
            only=only,
            progress_path=Path(args.progress_file) if args.progress_file else None,
        )
        build_dashboard(Path(args.html), inputs, emit=print)
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
        "events, link drops) of the whole run to PATH; the suffix picks "
        "the format: .jsonl (text) or .rtrc (indexed binary store, ~10x "
        "smaller, queryable with 'repro-udt trace')",
    )
    runp.add_argument(
        "--trace-packets",
        action="store_true",
        help="include per-packet lifecycle events (pkt.snd/pkt.rcv/"
        "link.enq/link.deq) in the trace so 'repro-udt report' can "
        "reconstruct packet spans; much larger traces",
    )
    runp.add_argument(
        "--summary",
        action="store_true",
        help="print a telemetry summary (event counts, last CC state per "
        "connection) after the run",
    )
    runp.add_argument(
        "--profile",
        action="store_true",
        help="profile the simulator hot path: per-category handler time, "
        "printed top-N plus a BENCH_profile_<exp>.json snapshot",
    )
    runp.add_argument(
        "--profile-json",
        metavar="PATH",
        default=None,
        help="where to write the profile snapshot (implies --profile; "
        "default BENCH_profile_<exp>.json)",
    )
    runp.add_argument(
        "--profile-top",
        type=int,
        default=10,
        metavar="N",
        help="how many categories the printed profile shows (default 10)",
    )
    runp.add_argument(
        "--fidelity",
        choices=["packet", "hybrid"],
        default=None,
        help="simulation tier: 'packet' (every packet an event) or "
        "'hybrid' (steady bulk-transfer stretches advanced analytically "
        "by the fluid tier; see docs/SIMULATION.md). Default: inherit "
        "REPRO_FIDELITY, falling back to packet",
    )

    sweepp = sub.add_parser(
        "sweep",
        help="run every experiment in parallel worker processes with "
        "digest-keyed result caching; merges timings into "
        "benchmarks/results/BENCH_runtime.json (see docs/PERFORMANCE.md)",
    )
    sweepp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes to keep in flight (default 1)",
    )
    sweepp.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="S",
        help="REPRO_SCALE for the workers (default: inherit, 0.3)",
    )
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
        help="write per-experiment traces to DIR/<exp>.<trace-format> "
        "(implies execution: trace runs never reuse the cache)",
    )
    sweepp.add_argument(
        "--trace-packets",
        action="store_true",
        help="with --trace-dir, include per-packet lifecycle events",
    )
    sweepp.add_argument(
        "--trace-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="with --trace-dir, the trace format workers record "
        "(default jsonl; rtrc is the indexed binary store, ~10x smaller)",
    )
    sweepp.add_argument(
        "--progress",
        action="store_true",
        help="stream live per-worker progress (vtime frontier, events/s, "
        "ETA) as status lines and into the progress feed the dashboard's "
        "live-run card reads",
    )
    sweepp.add_argument(
        "--progress-file",
        metavar="PATH",
        default=None,
        help="where the progress feed is written (implies --progress "
        "recording; default <cache-dir>/progress.jsonl)",
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
    sweepp.add_argument(
        "--fidelity",
        choices=["packet", "hybrid"],
        default=None,
        help="simulation tier the workers run at (default: inherit "
        "REPRO_FIDELITY, falling back to packet); hybrid results cache "
        "under separate digest keys and bench under '<exp>@hybrid' "
        "(see docs/SIMULATION.md)",
    )

    repp = sub.add_parser(
        "report",
        help="packet-lifecycle loss forensics from a trace, either format "
        "(record with: run ... --trace t.jsonl --trace-packets)",
    )
    repp.add_argument(
        "trace",
        nargs="?",
        default=None,
        help="trace file from a traced run (optional with --html)",
    )
    repp.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the full report as JSON to PATH",
    )
    repp.add_argument(
        "--html",
        metavar="OUT_DIR",
        default=None,
        help="build the static HTML dashboard (index + one page per "
        "experiment with inline SVG figures, the fidelity gate's rows, forensics "
        "and runtime trends) under OUT_DIR; results come from the sweep "
        "cache at the fidelity ledger's scale, never from running experiments",
    )
    repp.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="sweep result cache the dashboard reads results from "
        "(default $REPRO_CACHE_DIR or .repro-cache)",
    )
    repp.add_argument(
        "--bench",
        metavar="PATH",
        default=None,
        help="runtime ledger for trends (default "
        "benchmarks/results/BENCH_runtime.json)",
    )
    repp.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help="fidelity ledger (default benchmarks/results/BENCH_fidelity.json)",
    )
    repp.add_argument(
        "--only",
        metavar="EXP,...",
        default=None,
        help="restrict dashboard pages to these experiment ids",
    )
    repp.add_argument(
        "--progress-file",
        metavar="PATH",
        default=None,
        help="a 'sweep --progress' feed (progress.jsonl) to render as the "
        "dashboard's live-run card",
    )

    tracep = sub.add_parser(
        "trace",
        help="query, inspect and convert telemetry traces (.jsonl, .rtrc); "
        ".rtrc queries answer from the block index without a full scan "
        "(see docs/OBSERVABILITY.md)",
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

    confp = sub.add_parser(
        "conform",
        help="check recorded traces against the statically-extracted "
        "protocol model (analysis/protocol_model.json); see docs/ANALYSIS.md",
    )
    add_conform_arguments(confp)

    return parser, {
        "list": listp,
        "run": runp,
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
        return _cmd_report(args, parser)
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
