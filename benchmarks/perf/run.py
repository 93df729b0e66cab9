"""The repo benchmark: end-to-end runs, the traced run and the self-check.

Driver interface (one workload per invocation, last stdout line is the
JSON result)::

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs in turn with tracing off and
every metric is printed by name and unit; ``--traced`` adds the traced
run per workload, ``--selfcheck`` runs the end-to-end set twice and
compares, ``--quick`` is the smoke mode.  See README.md beside this file.

All numbers are host time except ``goodput_mbps`` on the simulated
workloads, which is simulated; traffic never leaves the simulator or the
host's loopback interface.  CPU-bound end-to-end timings are in reference
seconds (``calib.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from calib import slowdown

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

MIN_REPS = 3
CHILD_TIMEOUT_S = 100
#: Simulated goodput must stay this close to reference.json (seeds 1, 2).
GOODPUT_TOLERANCE = 0.02
#: Layers' self times must add up to the root spans this closely.
SELF_SUM_TOLERANCE = 0.05

#: Written before measuring: the layers expected to lead ``self_s``.
PREDICTED_TOP = {
    "udt_clean": ["sim.engine", "sim.link", "sim.node", "udt.core", "udt.buffers"],
    "udt_burstloss": ["sim.engine", "sim.link", "sim.queues", "udt.core", "udt.losslist"],
    "tcp_wan": ["tcp.agent", "tcp.scoreboard", "sim.engine", "sim.link", "sim.node"],
    "udt_traced": ["obs.bus", "obs.store", "sim.engine", "sim.link", "udt.core"],
    "udt_hybrid": ["sim.engine", "sim.link", "sim.node", "udt.core", "sim.fluid"],
    "live_loopback": ["live.transport", "udt.core", "udt.packets", "udt.buffers", "udt.cc"],
}


def _layers(prefix: str) -> List[str]:
    return sorted(
        n[: -len(".calls")] for n in PER_LAYER
        if n.startswith(prefix) and n.endswith(".calls")
    )


def design_checks(workload: str, m: Dict[str, float]) -> Dict[str, bool]:
    """The layer split each workload was designed to have (traced run)."""
    def calls(prefix: str) -> float:
        return sum(m[f"{l}.calls"] for l in _layers(prefix))

    def self_s(*layers: str) -> float:
        return sum(m[f"{l}.self_s"] for l in layers)

    def others(*layers: str) -> float:
        return max(m[f"{l}.self_s"] for l in _layers("") if l not in layers)

    checks = {"sim.fluid.spans>0 only on udt_hybrid":
              (m["sim.fluid.spans"] > 0) == (workload == "udt_hybrid")}
    if workload == "tcp_wan":
        checks["udt.* idle"] = calls("udt.") == 0
        checks["tcp.agent+tcp.scoreboard lead self_s"] = (
            self_s("tcp.agent", "tcp.scoreboard") > others("tcp.agent", "tcp.scoreboard")
        )
    else:
        checks["tcp.* idle"] = calls("tcp.") == 0
    if workload == "udt_traced":
        checks["obs.bus+obs.store lead self_s"] = (
            self_s("obs.bus", "obs.store") > others("obs.bus", "obs.store")
        )
    if workload == "udt_clean":
        checks["no naks, no retransmissions"] = (
            m["udt.core.naks"] == 0 and m["udt.core.retx_share"] == 0
        )
    if workload == "udt_burstloss":
        checks["udt.core.retx_share>0.05"] = m["udt.core.retx_share"] > 0.05
    return checks


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def spawn(*args: str) -> Dict[str, Any]:
    """Run child.py; its result plus ``process_s``, the child's whole wall."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    process_s = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["process_s"] = process_s
    return result


def _quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def reference_goodput(workload: str, seed: int) -> Optional[float]:
    ref = json.loads((HERE / "reference.json").read_text())
    return ref.get(workload, {}).get(str(seed), {}).get("goodput_mbps")


# ---------------------------------------------------------------------------
# End-to-end run (tracing off)
# ---------------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float, quick: bool) -> Dict[str, Any]:
    """Repeat the workload in fresh children for about ``seconds``."""
    scale = 0.25 if quick else 1.0
    children: List[Dict[str, Any]] = []
    started = time.perf_counter()
    while True:
        children.append(
            spawn("--workload", workload, "--seed", str(seed), "--scale", str(scale))
        )
        elapsed = time.perf_counter() - started
        if quick or (
            len(children) >= MIN_REPS
            and elapsed + elapsed / len(children) > seconds
        ):
            break

    good = [c for c in children if "error" not in c]
    regions = [s for c in good for s in c["region_s"]]
    oks = [ok for c in good for ok in c["ok"]]
    problems = [f"child failed: {c['error']}" for c in children if "error" in c]
    problems += sorted({f for c in good for f in c["failed_checks"]})
    # A crashed child loses every repetition it would have made.
    per_child = max((len(c["region_s"]) for c in good), default=1)
    attempted = len(oks) + per_child * (len(children) - len(good))
    failed = attempted - sum(oks)
    if not good:
        return {"attempted": attempted, "failed": failed, "problems": problems}

    digests = {c["sim_digest"] for c in good}
    if len(digests) > 1:
        problems.append(f"sim_digest differs between repetitions: {sorted(digests)}")
        failed = attempted
    # CPU-bound timings are divided by how much slower than the reference
    # the host ran beside them (calib.py): reference seconds.
    slow = [slowdown(c) for c in good]
    if workload == "live_loopback":
        # Paced by the SYN timer, not by the CPU: host speed does not scale it.
        walls = regions
        goodput = good[0]["transfer_bytes"] * 8.0 / statistics.median(walls) / 1e6
    else:
        walls = [c["region_s"][0] / k for c, k in zip(good, slow)]
        goodput = good[0]["goodput_mbps"]
        ref = None if quick else reference_goodput(workload, seed)
        if ref is not None and abs(goodput - ref) > GOODPUT_TOLERANCE * ref:
            problems.append(
                f"goodput_mbps {goodput:.3f} is not within "
                f"{GOODPUT_TOLERANCE:.0%} of the pinned {ref:.3f}"
            )
            failed = attempted
    raw_setups = [c["process_s"] - sum(c["region_s"]) - c["calib_s"] for c in good]
    setups = [s / k for s, k in zip(raw_setups, slow)]
    rss = [c["peak_rss_mb"] for c in good]
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
            "goodput_mbps": goodput,
        },
        "quartiles": {
            "wall_s": _quartiles(walls),
            "setup_s": _quartiles(setups),
            "peak_rss_mb": _quartiles(rss),
        },
        "n": {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(rss)},
        "as_measured": {
            "wall_s": statistics.median(regions),
            "setup_s": statistics.median(raw_setups),
            "host_slowdown": statistics.median(slow),
        },
        "sim_digest": good[0]["sim_digest"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def traced(workload: str, seed: int, quick: bool) -> Dict[str, Any]:
    """One untraced and one traced repetition plus the isolated drives."""
    scale = 0.25 if quick else 1.0
    common = ("--workload", workload, "--seed", str(seed), "--scale", str(scale))
    plain = spawn(*common)
    spans = spawn(*common, "--spans", str(OUT / f"trace_{workload}.json"))
    layers = spawn("--layers")
    problems = [
        f"{name} child failed: {c['error']}"
        for name, c in (("untraced", plain), ("traced", spans), ("layers", layers))
        if "error" in c
    ]
    if problems:
        return {"attempted": 2, "failed": 2, "problems": problems}

    trace = spans["trace"]
    m: Dict[str, float] = {}
    for layer, row in trace["layers"].items():
        m[f"{layer}.self_s"] = row["self_s"]
        m[f"{layer}.calls"] = row["calls"]
    m.update(spans["counts"])
    m["sim.engine.cancels"] = trace["cancels"]
    m["trace.root_s"] = trace["root_s"]
    m["trace.span_ns"] = trace["span_ns"]
    m["trace.overhead_x"] = (
        statistics.median(spans["region_s"]) / statistics.median(plain["region_s"])
    )
    m.update(layers["layers"])

    # A quarter-length run is too short to show the designed split.
    checks = {} if quick else design_checks(workload, m)
    self_sum = sum(row["self_s"] for row in trace["layers"].values())
    checks["self_s sums to the root spans"] = (
        abs(self_sum - trace["root_s"]) <= SELF_SUM_TOLERANCE * trace["root_s"]
    )
    checks["traced digest equals untraced"] = spans["sim_digest"] == plain["sim_digest"]
    checks["repetitions passed their checks"] = all(plain["ok"]) and all(spans["ok"])
    problems = [name for name, passed in checks.items() if not passed]
    top = sorted(trace["layers"], key=lambda l: -trace["layers"][l]["self_s"])[:5]
    return {
        "metrics": m,
        "sim_digest": spans["sim_digest"],
        "top_layers": top,
        "predicted_top": PREDICTED_TOP[workload],
        "attempted": 2,
        "failed": 2 if problems else 0,
        "problems": problems,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def result_line(run: Dict[str, Any], spec: Dict[str, Dict[str, str]]) -> str:
    """The driver's one-line JSON result."""
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": run["metrics"][name], "unit": m["unit"]}
            for name, m in spec.items()
        },
    })


def print_end_to_end(workload: str, seed: int, run: Dict[str, Any]) -> None:
    print(f"== {workload} (seed {seed}, tracing off) ==")
    for name, spec in END_TO_END.items():
        value = run["metrics"][name]
        if name in run["quartiles"]:
            q1, _, q3 = run["quartiles"][name]
            note = f"median of n={run['n'][name]}, quartiles {q1:.4f}..{q3:.4f}"
            if name == "setup_s" or (name == "wall_s" and workload != "live_loopback"):
                note += f"; reference seconds, as measured {run['as_measured'][name]:.4f}"
        elif workload == "live_loopback":
            note = "host time: payload bits / wall_s"
        else:
            note = "simulated; repeats exactly for a seed"
        print(f"  {name:<14}{value:>12.4f} {spec['unit']:<6} ({note})")
    print(f"  {'fail_share':<14}{run['failed'] / run['attempted']:>12.4f}        "
          f"({run['failed']} of {run['attempted']} repetitions)")
    print(f"  {'sim_digest':<14}{run['sim_digest'] or '-':>12}")
    print(f"  {'host_slowdown':<14}{run['as_measured']['host_slowdown']:>12.4f} x      "
          "(calibration loop against calib.REF_SPIN_S)")
    for p in run["problems"]:
        print(f"  FAILED: {p}")


def print_traced(workload: str, seed: int, run: Dict[str, Any]) -> None:
    print(f"== {workload} (seed {seed}, traced run) ==")
    for name, spec in PER_LAYER.items():
        print(f"  {name:<34}{run['metrics'][name]:>16.6g} {spec['unit']}")
    root = run["metrics"]["trace.root_s"]
    top, predicted = run["top_layers"], run["predicted_top"]
    print("  top five layers by self_s: " + ", ".join(
        f"{l} {run['metrics'][f'{l}.self_s'] / root:.1%}" for l in top))
    print("  predicted top five:        " + ", ".join(predicted))
    if set(top) != set(predicted):
        print("  MISMATCH: predicted but not measured: "
              f"{sorted(set(predicted) - set(top))}; measured but not predicted: "
              f"{sorted(set(top) - set(predicted))}")
    for p in run["problems"]:
        print(f"  FAILED: {p}")


def machine_note() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------


def run_set(workloads: List[str], args, want_traced: bool) -> Dict[str, Any]:
    """Every workload once; prints as it goes, returns what it measured."""
    results: Dict[str, Any] = {}
    for w in workloads:
        run = end_to_end(w, args.seed, args.seconds, args.quick)
        results[w] = {"end_to_end": run}
        if "metrics" not in run:
            print(f"== {w} ==\n  FAILED: " + "; ".join(run["problems"]))
            continue
        print_end_to_end(w, args.seed, run)
        if want_traced:
            tr = traced(w, args.seed, args.quick)
            results[w]["traced"] = tr
            if "metrics" in tr:
                print_traced(w, args.seed, tr)
            else:
                print("  FAILED: " + "; ".join(tr["problems"]))
        sys.stdout.flush()
    return results


def failures(results: Dict[str, Any]) -> int:
    return sum(
        run["failed"] for per in results.values() for run in per.values()
    )


def selfcheck(workloads: List[str], args) -> int:
    """Two end-to-end sets on the same checkout must agree within the bounds."""
    first = run_set(workloads, args, want_traced=False)
    second = run_set(list(reversed(workloads)), args, want_traced=False)
    bad = failures(first) + failures(second)
    print("== selfcheck: second set against first ==")
    for w in workloads:
        a, b = first[w]["end_to_end"], second[w]["end_to_end"]
        if "metrics" not in a or "metrics" not in b:
            continue
        for name, spec in END_TO_END.items():
            x, y = a["metrics"][name], b["metrics"][name]
            # Simulated goodput must repeat exactly, not just within a bound.
            simulated = name == "goodput_mbps" and w != "live_loopback"
            bound = 0.0 if simulated else spec["bound"]
            diff = abs(y - x) / x
            verdict = "ok" if diff <= bound else "DIFFERS"
            bad += verdict != "ok"
            print(f"  {w:<14}{name:<14}{x:>12.4f}{y:>12.4f} {diff:>7.2%} "
                  f"(bound {bound:.0%}) {verdict}")
        if a["sim_digest"] != b["sim_digest"]:
            bad += 1
            print(f"  {w:<14}sim_digest differs: {a['sim_digest']} {b['sim_digest']}")
    OUT.mkdir(exist_ok=True)
    (OUT / "selfcheck.json").write_text(
        json.dumps({"machine": machine_note(), "first": first, "second": second}, indent=1)
    )
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="driver mode: one workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only", help="comma-separated workloads (full modes)")
    ap.add_argument("--traced", action="store_true", help="add the traced run")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--quick", action="store_true",
                    help="one repetition at a quarter of the length, no bounds")
    args = ap.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    if args.workload:
        if args.trace:
            run, spec = traced(args.workload, args.seed, args.quick), PER_LAYER
        else:
            run = end_to_end(args.workload, args.seed, args.seconds, args.quick)
            spec = END_TO_END
        if "metrics" not in run:
            print("; ".join(run["problems"]), file=sys.stderr)
            return 1
        if args.trace:
            print_traced(args.workload, args.seed, run)
        else:
            print_end_to_end(args.workload, args.seed, run)
        print(result_line(run, spec))
        return 0

    workloads = args.only.split(",") if args.only else WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload(s) {unknown}; known: {WORKLOADS}")
    if args.selfcheck:
        return selfcheck(workloads, args)
    results = run_set(workloads, args, want_traced=args.traced)
    OUT.mkdir(exist_ok=True)
    (OUT / "results.json").write_text(
        json.dumps({"machine": machine_note(), "seed": args.seed,
                    "quick": args.quick, "workloads": results}, indent=1)
    )
    failed = failures(results)
    print(f"fail_share over all workloads: {failed} failed repetition(s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
