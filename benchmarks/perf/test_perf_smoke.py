"""Smoke test of the benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/perf -q``; takes about a minute.
It checks that the harness runs and prints what BENCHMARK.json promises,
never how fast anything is: ``--quick`` applies no bounds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )


def test_quick_prints_every_end_to_end_metric_for_every_workload():
    proc = run("--quick")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    sections = re.split(r"^== (\w+) \(", proc.stdout, flags=re.M)[1:]
    printed = dict(zip(sections[::2], sections[1::2]))
    assert list(printed) == WORKLOADS
    for workload, text in printed.items():
        names = re.findall(r"^  ([\w.]+) +[-\d]", text, flags=re.M)
        want = [m["name"] for m in SPEC["end_to_end"]] + ["fail_share"]
        assert names[: len(want)] == want, (workload, names)
        for m in SPEC["end_to_end"]:
            assert re.search(rf"^  {m['name']} +[\d.]+ {re.escape(m['unit'])} ", text, re.M)
        assert "FAILED" not in text, text


def test_driver_lines_carry_exactly_the_declared_metrics():
    for trace, declared in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        proc = run("--workload", "udt_burstloss", "--seed", "3", "--quick", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
