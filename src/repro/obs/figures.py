"""The fidelity gate and its ledger (``python -m repro.obs.figures``).

``benchmarks/results/BENCH_fidelity.json`` is the one committed fidelity
record.  At one ``scale`` it holds, per registered experiment, the digest
of the rows it was read from and the value of every metric of
:mod:`repro.obs.claims` — claims and drift metrics alike.  Its ``hybrid``
section, at its own scale, holds the same-scale packet reference the
hybrid gate compares against.  Bands and tolerances live in
:mod:`repro.obs.claims` only, and verdicts are computed, never stored.

* ``--gate`` evaluates every experiment's rows (:func:`~repro.obs.claims.evaluate`):
  each claim against the paper's band (``pass``, ``deviates (reason)``
  inside the band the reproduction holds itself to, ``FAIL``), each drift
  metric against its recorded value.  ``--fidelity hybrid`` compares
  hybrid rows with the packet reference, in the wider hybrid bands.
* ``--update`` records the values anew; it is the ledger's only writer.
* ``--render`` writes the figures as SVG (:mod:`repro.obs.svg` draws).

Nothing here runs an experiment.  Every row is looked up one way: in the
digest-keyed sweep cache, at the scale of the ledger section asked about
(``REPRO_SCALE`` while it has none, as for the sweep).  A miss fails with
the exact ``repro-udt sweep`` line that fills it.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.claims import METRICS, band_text, evaluate, measure, rounded
from repro.obs.figspec import ResultTable, SPECS, get_spec
from repro.obs.svg import render_figure
from repro.runner.cache import (
    ResultCache,
    default_cache_dir,
    read_json_object,
    write_json_atomic,
)

FIDELITY_SCHEMA = 2
DEFAULT_LEDGER = Path("benchmarks/results/BENCH_fidelity.json")


# -- fidelity ledger --------------------------------------------------------


def read_ledger(path: Path) -> Dict[str, Any]:
    data = read_json_object(path)
    data.setdefault("schema", FIDELITY_SCHEMA)
    data.setdefault("kind", "bench.fidelity")
    data.setdefault("experiments", {})
    return data


def section_scale(section: Dict[str, Any]) -> float:
    """The one scale every row of a ledger section is read at: its own,
    else ``REPRO_SCALE`` as ``repro-udt sweep`` reads it."""
    if "scale" in section:
        return float(section["scale"])
    from repro.experiments.common import scale

    return scale()


def recorded(section: Dict[str, Any], exp_id: str) -> Dict[str, Optional[float]]:
    return section["experiments"].get(exp_id, {}).get("metrics", {})


def ledger_entry(
    exp_id: str, table: ResultTable, hybrid: bool = False
) -> Dict[str, Any]:
    """One experiment's record: the digest of its rows and every metric's
    value; a hybrid section's entry is the packet reference's values of
    the metrics the hybrid gate compares, and nothing else."""
    values = {k: rounded(v) for k, v in measure(exp_id, table, hybrid).items()}
    if hybrid:
        return {"metrics": values}
    return {"digest": table.digest, "metrics": values}


# -- result lookup ----------------------------------------------------------


def resolve_result(
    exp_id: str, scale: float, cache: ResultCache, fidelity: str = "packet"
) -> Tuple[Optional[ResultTable], str]:
    """The experiment's rows swept at ``scale`` (``fidelity`` is part of
    the digest), or ``(None, reason)`` where the reason ends in the sweep
    command that produces the missing entry."""
    from repro.runner.digest import experiment_digest

    digest, _ = experiment_digest(exp_id, scale, fidelity=fidelity)
    entry = cache.load(digest)
    if entry is not None:
        table = ResultTable(entry["result"])
        table.digest = digest
        return table, ""
    cmd = f"repro-udt sweep --only {exp_id} --scale {scale:g}"
    if fidelity != "packet":
        cmd += f" --fidelity {fidelity}"
    if cache.root != default_cache_dir():
        cmd += f" --cache-dir {cache.root}"
    return None, (
        f"no {fidelity} result at scale={scale:g} in {cache.root} "
        f"(digest {digest[:12]}); run: {cmd}"
    )


def resolve_tables(
    exp_ids: Sequence[str], scale: float, cache: ResultCache, fidelity: str = "packet"
) -> Tuple[Dict[str, ResultTable], Dict[str, str]]:
    """:func:`resolve_result` for each id: ``(tables, {id: miss reason})``."""
    tables: Dict[str, ResultTable] = {}
    misses: Dict[str, str] = {}
    for exp_id in exp_ids:
        table, reason = resolve_result(exp_id, scale, cache, fidelity)
        if table is None:
            misses[exp_id] = reason
        else:
            tables[exp_id] = table
    return tables, misses


# -- the gate's report ------------------------------------------------------


def report(
    rows: Sequence[Dict[str, Any]], scale: float, hybrid: bool = False
) -> Tuple[List[str], List[str]]:
    """``(lines, failures)`` for the gate's rows: a failing claim quotes
    the paper sentence it encodes, a drift names its distance."""
    says = {(exp, m.name): m.says for exp, ms in METRICS.items() for m in ms}
    lines: List[str] = []
    failures: List[str] = []
    for exp_id in dict.fromkeys(r["exp"] for r in rows):
        mine = [r for r in rows if r["exp"] == exp_id]
        claims = [r for r in mine if "verdict" in r]
        drift = [r for r in mine if "drifted" in r]
        lines.append(
            f"[fidelity] {exp_id} ({'hybrid, ' if hybrid else ''}scale={scale:g}): "
            f"{len(claims)} claim(s), {len(drift)} drift metric(s)"
        )
        for r in claims:
            text = f"{r['metric']} = {r['value']} vs {band_text(r['band'])}"
            if "held" in r:
                text += f", held {band_text(r['held'])}"
            mark = r["verdict"]
            if mark == "deviates":
                mark += f" ({r['reason']})"
            lines.append(f"[claims]   {text}: {mark}")
            if r["verdict"] == "FAIL":
                quote = says[exp_id, r["metric"]]
                failures.append(f"{exp_id}: claim {text} — \"{quote}\"")
        for r in drift:
            name, ref, val = r["metric"], r["recorded"], r["value"]
            if ref is None:
                hint = " --fidelity hybrid" if hybrid else ""
                lines.append(f"[fidelity]   {name:<24} not recorded: DRIFTED")
                failures.append(
                    f"{exp_id}: {name} has no ledger value (run --update{hint})"
                )
                continue
            delta = math.nan if val is None else val - ref
            lines.append(
                f"[fidelity]   {name:<24} {ref:>12.6g} -> {_g(val):>12} "
                f"(Δ {delta:+.6g}, band ±{r['allowed']:.6g}) "
                f"{'DRIFTED' if r['drifted'] else 'ok'}"
            )
            if r["drifted"]:
                failures.append(
                    f"{exp_id}: {name} drifted {delta:+.6g} beyond "
                    f"±{r['allowed']:.6g} ({ref:.6g} -> {_g(val)})"
                )
    return lines, failures


def _g(value: Optional[float]) -> str:
    return "nan" if value is None else f"{value:.6g}"


# -- CLI --------------------------------------------------------------------


def _parse_only(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [s for s in raw.replace(" ", "").split(",") if s]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.figures",
        description="Gate swept results against the paper's claims and the "
        "values the committed fidelity ledger recorded "
        "(benchmarks/results/BENCH_fidelity.json), with the bands of "
        "repro.obs.claims; re-record the ledger; render paper figures as SVG.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--gate",
        action="store_true",
        help="evaluate every claim of the experiments asked for (pass / "
        "deviates (reason) / FAIL) and fail on drift beyond a metric's "
        "tolerance from the value the ledger recorded",
    )
    mode.add_argument(
        "--update",
        action="store_true",
        help="re-record the ledger's values from current results "
        "(intentional behaviour changes; reviewed like a perf baseline)",
    )
    mode.add_argument(
        "--render",
        metavar="DIR",
        default=None,
        help="write <fig>.svg files to DIR instead of gating",
    )
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        default=None,
        help=f"fidelity ledger path (default {DEFAULT_LEDGER}); its scale, "
        "or REPRO_SCALE while it has none, is the scale every row is read at",
    )
    parser.add_argument(
        "--only",
        metavar="EXP,...",
        default=None,
        help="restrict to these experiment ids (default: every registered "
        "experiment; --render: every one with a figure spec; --fidelity "
        "hybrid: every one the hybrid section records)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="sweep result cache to resolve results from (default "
        "$REPRO_CACHE_DIR or .repro-cache); a result it lacks fails with "
        "the 'repro-udt sweep' line that produces it",
    )
    parser.add_argument(
        "--fidelity",
        choices=["packet", "hybrid"],
        default="packet",
        help="simulation tier (docs/SIMULATION.md): hybrid gates hybrid "
        "rows against the hybrid section's packet reference in the wider "
        "hybrid bands, skipping claims and the metrics the fidelity "
        "contract leaves undefined; --update records that reference",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with --gate, also write the gate's rows (one per metric: "
        "claim verdicts and drift) as JSON to PATH",
    )
    args = parser.parse_args(argv)

    from repro.experiments import REGISTRY

    ledger_path = Path(args.ledger) if args.ledger else DEFAULT_LEDGER
    ledger = read_ledger(ledger_path)
    hybrid = args.fidelity == "hybrid"
    section = ledger.setdefault("hybrid", {}) if hybrid else ledger
    section.setdefault("experiments", {})
    scale = section_scale(section)
    cache = ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    if args.render is not None:
        default = sorted(SPECS)
    elif hybrid:
        default = sorted(section["experiments"])
    else:
        default = list(REGISTRY)
    exp_ids = _parse_only(args.only) or default
    unknown = [e for e in exp_ids if e not in REGISTRY]
    if unknown:
        parser.error(f"unknown experiment id(s): {', '.join(unknown)}")
    if not exp_ids:
        print(
            f"[figures] {ledger_path} has no hybrid section; use --update "
            "--fidelity hybrid --only EXP,... to create one",
            file=sys.stderr,
        )
        return 1

    problems: List[str] = []
    if args.render is not None:
        problems = [f"{e}: no figure spec registered" for e in exp_ids if e not in SPECS]
        exp_ids = [e for e in exp_ids if e in SPECS]
    # the hybrid section records a packet reference: --update reads packet rows
    tables, misses = resolve_tables(
        exp_ids, scale, cache, "packet" if args.update else args.fidelity
    )
    problems += [f"{exp_id}: {reason}" for exp_id, reason in misses.items()]

    if args.render is not None:
        out_dir = Path(args.render)
        out_dir.mkdir(parents=True, exist_ok=True)
        for exp_id, table in tables.items():
            path = out_dir / f"{exp_id}.svg"
            path.write_text(render_figure(get_spec(exp_id), table), encoding="utf-8")
            print(f"[figures] {exp_id} -> {path}")
    if args.update:
        section["scale"] = scale
        for exp_id, table in tables.items():
            section["experiments"][exp_id] = ledger_entry(exp_id, table, hybrid)
            print(f"[figures] {exp_id}: ledger entry updated (scale={scale:g})")
        write_json_atomic(ledger_path, ledger)
        print(f"[figures] ledger -> {ledger_path}")
    if not args.gate:
        for p in problems:
            print(f"[figures] WARNING: {p}", file=sys.stderr)
        return 0 if not problems else 1

    rows: List[Dict[str, Any]] = []
    for exp_id, table in tables.items():
        rows += evaluate(exp_id, table, recorded(section, exp_id), hybrid)
    lines, failures = report(rows, scale, hybrid)
    failures += problems
    for line in lines:
        print(line)
    if args.json:
        write_json_atomic(Path(args.json), {
            "schema": FIDELITY_SCHEMA,
            "kind": "fidelity.gate",
            "fidelity": args.fidelity,
            "scale": scale,
            "rows": rows,
            "failures": failures,
            "passed": not failures,
        })
    for failure in failures:
        print(f"[fidelity] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    verdicts = [r["verdict"] for r in rows if "verdict" in r]
    deviating = verdicts.count("deviates")
    print(
        f"[fidelity] {len(tables)} experiment(s) at scale={scale:g}: "
        f"{len(verdicts) - deviating} claim(s) pass, {deviating} deviate with a "
        f"written reason, none FAIL; "
        f"no drift beyond tolerance ({sum('drifted' in r for r in rows)} metric(s))"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
