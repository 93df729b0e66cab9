"""Command-line surface for the analysis suite.

Shared by two entry points: ``repro-udt lint`` / ``repro-udt conform``
(the subcommands wired into :mod:`repro.cli`) and ``python -m
repro.analysis`` (the same lint driver, importable without the rest of
the CLI; also hosts the hidden ``--worker`` mode the determinism
sanitizer spawns).

Exit codes: 0 = clean (zero findings / sanitizer agreed / trace
conforms), 1 = findings, divergence or violations,
2 = usage/configuration error.

Full-rule lint runs also maintain ``analysis/.lintstatus.json`` — a
small merge-updated status file (last lint outcome, last conformance
verdicts) the HTML dashboard renders as its code-health card.
"""

from __future__ import annotations

import argparse
import ast as _ast
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.core import default_root, repo_root
from repro.obs.export import TRACE_FORMATS

#: merge-updated status file consumed by the dashboard's code-health card.
STATUS_RELPATH = "analysis/.lintstatus.json"


def update_status(section: str, payload: Dict[str, Any]) -> Optional[Path]:
    """Merge one section into ``analysis/.lintstatus.json`` (best-effort)."""
    repo = repo_root()
    if repo is None:
        return None
    path = repo / STATUS_RELPATH
    data: Dict[str, Any] = {}
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        data = {}
    if not isinstance(data, dict) or data.get("schema") != 1:
        data = {"schema": 1, "kind": "lint.status"}
    data[section] = dict(payload, updated=time.time())
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")
    except OSError:
        return None
    return path


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the lint options on ``parser`` (shared by both entry points)."""
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the report (findings, gate_passed, elapsed_s) as JSON "
        "on stdout",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule (repeatable); default: all rules",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="package tree to analyse (default: the installed repro package)",
    )
    parser.add_argument(
        "--sanitize",
        metavar="EXP_ID",
        default=None,
        help="additionally run the determinism sanitizer on this experiment "
        "(two perturbed runs, byte-level trace diff)",
    )
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="runner keyword override for --sanitize (repeatable), "
        "e.g. --set duration=5",
    )
    parser.add_argument(
        "--sanitize-format",
        choices=TRACE_FORMATS,
        default="jsonl",
        help="trace format the --sanitize runs record and diff "
        "(default: jsonl)",
    )
    parser.add_argument(
        "--conformance",
        action="append",
        default=[],
        metavar="TRACE",
        help="additionally check this trace (.rtrc/.jsonl[.gz]) against "
        "the extracted protocol model (repeatable); violations fail the "
        "run like findings do",
    )
    parser.add_argument(
        "--model",
        metavar="PATH",
        default=None,
        help="protocol model to check traces against (default: the "
        "committed analysis/protocol_model.json)",
    )


def parse_overrides(
    items: List[str], parser: Optional[argparse.ArgumentParser] = None
) -> Dict[str, Any]:
    """``--set KEY=VALUE`` items as runner kwargs (literals, else strings)."""
    kwargs: Dict[str, Any] = {}
    for item in items:
        if "=" not in item:
            msg = f"--set expects KEY=VALUE, got {item!r}"
            if parser is not None:
                parser.error(msg)
            raise SystemExit(msg)
        key, _, raw = item.partition("=")
        try:
            kwargs[key] = _ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            kwargs[key] = raw
    return kwargs


def run_lint(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run the checker driver (the gate is zero findings), maybe sanitize."""
    from repro.analysis import all_checkers, rule_ids
    from repro.analysis.core import run_checkers

    rules = args.rule
    if rules:
        unknown = sorted(set(rules) - set(rule_ids()))
        if unknown:
            parser.error(f"unknown rule(s): {', '.join(unknown)}")

    root = Path(args.root) if args.root else default_root()
    if not root.is_dir():
        parser.error(f"not a directory: {root}")

    t0 = time.perf_counter()
    findings = run_checkers(root, all_checkers(), rules=rules)
    elapsed = time.perf_counter() - t0

    conform_reports = _run_conformance(args, parser)

    gate_passed = not findings
    payload: Dict[str, Any] = {
        "schema": 1,
        "kind": "lint.report",
        "elapsed_s": round(elapsed, 3),
        "findings": [f.to_dict() for f in findings],
        "gate_passed": gate_passed,
    }
    if rules:
        payload["rules"] = sorted(rules)
    if conform_reports is not None:
        payload["conformance"] = [r.to_dict() for r in conform_reports]

    rc = 0 if gate_passed else 1
    if any(not r.ok for r in conform_reports or ()):
        rc = 1

    # The sanitizer and the dashboard's status file belong to full runs;
    # a --rule selection reports its findings and nothing else.
    sanitize_result = None
    if not rules:
        if args.sanitize:
            from repro.analysis.sanitizer import DeterminismSanitizer

            sanitizer = DeterminismSanitizer(
                args.sanitize,
                overrides=parse_overrides(args.overrides, parser),
                trace_format=args.sanitize_format,
            )
            sanitize_result = sanitizer.run()
            payload["sanitize"] = sanitize_result.to_dict()
            if not sanitize_result.deterministic:
                rc = 1
        update_status(
            "lint",
            {
                "findings": len(findings),
                "gate_passed": gate_passed,
                "elapsed_s": round(elapsed, 3),
            },
        )
        if conform_reports is not None:
            update_status(
                "conformance",
                {"traces": [r.to_dict() for r in conform_reports]},
            )

    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return rc

    for f in findings:
        print(f.format())
    notes = f", rules {','.join(sorted(rules))}" if rules else ""
    print(f"[lint: {len(findings)} finding(s){notes}, {elapsed:.2f}s]")
    for r in conform_reports or ():
        print(r.format())
    if sanitize_result is not None:
        print(sanitize_result.format())
    return rc


def _run_conformance(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> Optional[List[Any]]:
    """Check every --conformance trace; None when none were requested."""
    traces = getattr(args, "conformance", None) or []
    if not traces:
        return None
    from repro.analysis.conformance import check_trace
    from repro.analysis.protomodel import load_model

    model_path = Path(args.model) if getattr(args, "model", None) else None
    try:
        model = load_model(model_path)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot load protocol model: {exc}")
    reports = []
    for trace in traces:
        if not Path(trace).is_file():
            parser.error(f"no such trace: {trace}")
        reports.append(check_trace(trace, model=model))
    return reports


def add_conform_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``conform`` subcommand options."""
    parser.add_argument(
        "traces",
        nargs="+",
        metavar="TRACE",
        help="trace file(s) (.rtrc/.jsonl[.gz]) to check against the "
        "protocol model",
    )
    parser.add_argument(
        "--model",
        metavar="PATH",
        default=None,
        help="protocol model JSON (default: committed "
        "analysis/protocol_model.json, extracted live as a fallback)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the reports as JSON on stdout",
    )


def run_conform(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Entry point for ``repro-udt conform``."""
    shim = argparse.Namespace(conformance=args.traces, model=args.model)
    reports = _run_conformance(shim, parser) or []
    update_status("conformance", {"traces": [r.to_dict() for r in reports]})
    if args.json:
        json.dump(
            {
                "schema": 1,
                "kind": "conformance.report",
                "traces": [r.to_dict() for r in reports],
            },
            sys.stdout,
            indent=2,
        )
        sys.stdout.write("\n")
    else:
        for r in reports:
            print(r.format())
    return 1 if any(not r.ok for r in reports) else 0


def _run_worker(args: argparse.Namespace) -> int:
    from repro.analysis.sanitizer import run_worker

    run_worker(
        args.worker,
        args.worker_trace,
        parse_overrides(args.overrides),
        args.worker_packets,
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Protocol-invariant static analysis for the repro tree.",
    )
    add_lint_arguments(parser)
    # Hidden worker mode used by DeterminismSanitizer subprocesses.
    parser.add_argument("--worker", metavar="EXP_ID", help=argparse.SUPPRESS)
    parser.add_argument("--worker-trace", metavar="PATH", help=argparse.SUPPRESS)
    parser.add_argument(
        "--worker-packets", action="store_true", help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.worker:
        if not args.worker_trace:
            parser.error("--worker requires --worker-trace")
        return _run_worker(args)
    return run_lint(args, parser)
