"""Command-line surface for the analysis suite.

The ``repro-udt lint`` and ``repro-udt conform`` subcommands wired into
:mod:`repro.cli` (``python -m repro lint`` without an install).  Both
report on stdout (``--json`` for machines) and through the exit code,
and write nothing.

Exit codes: 0 = clean (zero findings / sanitizer agreed / trace
conforms), 1 = findings, divergence or violations,
2 = usage/configuration error.
"""

from __future__ import annotations

import argparse
import ast as _ast
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.analysis.core import default_root
from repro.obs.export import TRACE_FORMATS

def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Register the ``lint`` subcommand options."""
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

    rc = 0 if gate_passed else 1

    # The sanitizer belongs to full runs; a --rule selection reports its
    # findings and nothing else.
    sanitize_result = None
    if args.sanitize and not rules:
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

    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return rc

    for f in findings:
        print(f.format())
    notes = f", rules {','.join(sorted(rules))}" if rules else ""
    print(f"[lint: {len(findings)} finding(s){notes}, {elapsed:.2f}s]")
    if sanitize_result is not None:
        print(sanitize_result.format())
    return rc


def _run_conformance(
    traces: List[str], model_path: Optional[str], parser: argparse.ArgumentParser
) -> List[Any]:
    """Check every trace against the model; usage errors go to ``parser``."""
    from repro.analysis.conformance import check_trace
    from repro.analysis.protomodel import load_model

    try:
        model = load_model(Path(model_path) if model_path else None)
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
        help="trace file(s) (.rtrc/.jsonl) to check against the "
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
    reports = _run_conformance(args.traces, args.model, parser)
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
