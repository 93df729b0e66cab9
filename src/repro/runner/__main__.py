"""Process entry points for the sweep runner.

Two modes, neither intended for direct human use (drive sweeps through
``repro-udt sweep``):

* ``python -m repro.runner --worker EXP --scale S --fidelity TIER --digest D --out F``
  runs one experiment in this (fresh) interpreter and writes its cache
  entry JSON to ``F``.
* ``python -m repro.runner --gate CURRENT --baseline BASE [--key K]``
  the CI runtime-regression gate: compares per-experiment sweep timings
  between two ``BENCH_runtime.json`` ledgers (median-normalised; see
  docs/PERFORMANCE.md) and exits non-zero on a regression.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import List, Optional

from repro.experiments.common import RunArgs, add_run_flags, parse_run_args, traced


def _run_worker_mode(args: argparse.Namespace, run_args: RunArgs) -> int:
    from contextlib import ExitStack

    from repro.experiments import get_experiment

    exp = get_experiment(args.worker)
    with ExitStack() as stack:
        if args.progress:
            # heartbeat JSON lines on stdout — the parent sweep reads
            # them off the subprocess pipe (repro.runner.progress)
            from repro.runner.progress import ProgressReporter

            stack.enter_context(ProgressReporter(args.worker))
        stack.enter_context(
            traced(
                args.trace,
                packets=args.trace_packets,
                generator="repro-udt sweep",
                experiments=[args.worker],
            )
        )
        t0 = time.perf_counter()
        result = exp.runner(run_args=run_args)
        seconds = time.perf_counter() - t0
    entry = {
        "exp_id": args.worker,
        "digest": args.digest,
        "scale": run_args.scale,
        "seconds": seconds,
        "result": asdict(result),
    }
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(entry, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    return 0


def _run_gate_mode(args: argparse.Namespace) -> int:
    from repro.runner.sweep import check_regressions

    failures, lines = check_regressions(
        Path(args.gate),
        Path(args.baseline),
        key=args.key,
        threshold=args.threshold,
    )
    for line in lines:
        print(line)
    for failure in failures:
        print(f"[gate] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("[gate] no runtime regressions")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.runner")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--worker", metavar="EXP_ID", help="run one experiment")
    mode.add_argument(
        "--gate", metavar="CURRENT", help="regression-gate a runtime ledger"
    )
    add_run_flags(parser)
    parser.add_argument("--digest", default="", help="digest to echo into the entry")
    parser.add_argument("--out", help="where the worker writes its entry JSON")
    parser.add_argument(
        "--trace", default=None, help="trace path (.rtrc)"
    )
    parser.add_argument("--trace-packets", action="store_true")
    parser.add_argument(
        "--progress",
        action="store_true",
        help="emit sweep.heartbeat JSON lines on stdout for the parent",
    )
    parser.add_argument("--baseline", help="baseline ledger for --gate")
    parser.add_argument("--key", default=None, help="only gate this sweep key")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed normalised slowdown (default 0.25 = +25%%)",
    )
    args = parser.parse_args(argv)
    if args.worker:
        if not args.out:
            parser.error("--worker requires --out")
        return _run_worker_mode(args, parse_run_args(args, parser))
    if not args.baseline:
        parser.error("--gate requires --baseline")
    return _run_gate_mode(args)


if __name__ == "__main__":
    sys.exit(main())
