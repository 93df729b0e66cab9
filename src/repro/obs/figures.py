"""The fidelity gate and its ledgers (``python -m repro.obs.figures``).

Fidelity is checked two ways, from results that already exist:

* **to the paper** — ``--gate`` evaluates every claim of
  :mod:`repro.obs.claims` on the experiment's rows: ``pass`` inside the
  paper's band, ``deviates (reason)`` inside the band the reproduction
  holds itself to, ``FAIL`` otherwise — of the rows swept at one scale,
  ``--scale`` or else ``REPRO_SCALE`` as the sweep reads it.  ``--json``
  writes the verdict table; ``benchmarks/results/BENCH_claims.json`` is
  the committed one.
* **to the last accepted run** — ``benchmarks/results/BENCH_fidelity.json``
  is a committed snapshot of each figure's headline metrics with
  tolerance bands; ``--gate`` recomputes them — at the scale each entry
  was snapshotted at, unless ``--scale`` says otherwise — and fails on
  drift beyond tolerance, the way ``python -m repro.runner --gate`` does
  for runtimes.  ``--update`` re-snapshots the ledger.

``--render`` writes the figures as SVG (:mod:`repro.obs.svg` draws).

Nothing here runs an experiment.  Current results are looked up in
order: ``--results DIR`` entry files, then the digest-keyed sweep cache.
The sweep worker is the only producer of both, so a miss fails with the
exact ``repro-udt sweep`` line that would fill it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Container, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.claims import METRICS, evaluate
from repro.obs.figspec import (
    FigureSpec,
    ResultTable,
    SPECS,
    compute_metrics,
    get_spec,
    hybrid_tolerances,
    tolerances,
)
from repro.obs.svg import render_figure
from repro.runner.cache import (
    ResultCache,
    default_cache_dir,
    read_json_object,
    write_json_atomic,
)

FIDELITY_SCHEMA = 1
CLAIMS_SCHEMA = 1
DEFAULT_LEDGER = Path("benchmarks/results/BENCH_fidelity.json")


# -- fidelity ledger --------------------------------------------------------


def read_ledger(path: Path) -> Dict[str, Any]:
    data = read_json_object(path)
    data.setdefault("schema", FIDELITY_SCHEMA)
    data.setdefault("kind", "bench.fidelity")
    data.setdefault("figures", {})
    return data


def _snapshot_metrics(spec: FigureSpec, table: ResultTable) -> Dict[str, float]:
    return {k: round(v, 6) for k, v in compute_metrics(spec, table).items()}


def ledger_entry(
    spec: FigureSpec, table: ResultTable, scale: float, tols: Any = tolerances
) -> Dict[str, Any]:
    """One committed snapshot: metrics + the spec's tolerance bands.

    With ``tols=hybrid_tolerances`` it is a figure entry's ``hybrid``
    section: the hybrid run's metrics and the (wider) hybrid bands from
    the fidelity contract, where only hybrid-defined metrics get a band.
    The caller adds ``packet_metrics`` when a same-scale packet reference
    is available (docs/SIMULATION.md).
    """
    return {
        "scale": scale,
        "metrics": _snapshot_metrics(spec, table),
        "tolerances": tols(spec),
    }


def hybrid_reference_ledger(
    ledger: Dict[str, Any], fig_ids: Sequence[str]
) -> Tuple[Dict[str, Any], List[str]]:
    """Build the reference :func:`check_fidelity` gates hybrid runs with.

    Per figure the reference metrics are the stored same-scale
    ``packet_metrics`` when present (the hybrid-vs-packet comparison the
    fidelity contract documents) and the hybrid snapshot itself
    otherwise (a plain drift check).  Only metrics with a hybrid band
    are compared; contract-undefined metrics are dropped here.
    """
    figures: Dict[str, Any] = {}
    problems: List[str] = []
    for fig_id in fig_ids:
        entry = ledger.get("figures", {}).get(fig_id, {})
        section = entry.get("hybrid")
        if section is None:
            problems.append(
                f"{fig_id}: no hybrid ledger section "
                "(run --update --fidelity hybrid to add one)"
            )
            continue
        tols = section.get("tolerances", {})
        ref = section.get("packet_metrics") or section.get("metrics", {})
        figures[fig_id] = {
            "scale": section.get("scale"),
            "metrics": {k: ref[k] for k in tols if k in ref},
            "tolerances": tols,
        }
    return {"figures": figures}, problems


def _allowed_delta(tol: Dict[str, Any], reference: float) -> float:
    if tol.get("relative"):
        return float(tol.get("tolerance", 0.0)) * abs(reference)
    return float(tol.get("tolerance", 0.0))


def check_fidelity(
    current: Dict[str, Dict[str, float]],
    ledger: Dict[str, Any],
    only: Optional[Sequence[str]] = None,
) -> Tuple[List[str], List[str]]:
    """Compare current figure metrics against the ledger.

    ``current`` maps fig_id -> {metric: value}.  Returns ``(failures,
    lines)`` in the same shape as the runtime gate: human-readable
    failure strings plus a full comparison log.
    """
    figures = ledger.get("figures", {})
    fig_ids = sorted(set(only) if only else set(figures))
    failures: List[str] = []
    lines: List[str] = []
    for fig_id in fig_ids:
        entry = figures.get(fig_id)
        if entry is None:
            failures.append(f"{fig_id}: no ledger entry (run --update to add one)")
            continue
        cur = current.get(fig_id)
        if cur is None:
            failures.append(f"{fig_id}: no current metrics to compare")
            continue
        ref_metrics = entry.get("metrics", {})
        tols = entry.get("tolerances", {})
        lines.append(
            f"[fidelity] {fig_id} (scale={entry.get('scale', '?')}): "
            f"{len(ref_metrics)} metric(s)"
        )
        for name, ref in sorted(ref_metrics.items()):
            if name not in cur:
                failures.append(f"{fig_id}: metric {name} missing from current run")
                continue
            val = cur[name]
            allowed = _allowed_delta(tols.get(name, {}), ref)
            delta = val - ref
            ok = abs(delta) <= allowed
            mark = "ok" if ok else "DRIFTED"
            lines.append(
                f"[fidelity]   {name:<24} {ref:>12.6g} -> {val:>12.6g} "
                f"(Δ {delta:+.6g}, band ±{allowed:.6g}) {mark}"
            )
            if not ok:
                failures.append(
                    f"{fig_id}: {name} drifted {delta:+.6g} beyond ±{allowed:.6g} "
                    f"({ref:.6g} -> {val:.6g})"
                )
    if not fig_ids:
        failures.append("fidelity ledger is empty — nothing to gate")
    return failures, lines


def _band_text(band: Sequence[Optional[float]]) -> str:
    lo, hi = band
    lo_text = "-inf" if lo is None else f"{lo:g}"
    hi_text = "inf" if hi is None else f"{hi:g}"
    return f"[{lo_text}, {hi_text}]"


def check_claims(
    tables: Dict[str, ResultTable], scale: float
) -> Tuple[List[Dict[str, Any]], List[str], List[str]]:
    """Evaluate the claims of every experiment in ``tables`` (rows swept
    at ``scale``).

    Returns ``(verdict rows, failures, lines)``: the rows are what
    ``--json`` writes (claim, value, band, verdict, scale, digest), a
    failure names the claim and quotes the paper sentence it encodes.
    """
    rows: List[Dict[str, Any]] = []
    failures: List[str] = []
    lines: List[str] = []
    for exp_id, table in tables.items():
        says = {m.name: m.says for m in METRICS[exp_id]}
        verdicts = evaluate(exp_id, table)
        lines.append(f"[claims] {exp_id} (scale={scale:g}): {len(verdicts)} claim(s)")
        for row in verdicts:
            row.update(scale=scale, digest=table.digest)
            text = f"{row['claim']} = {row['value']} vs {_band_text(row['band'])}"
            if "held" in row:
                text += f", held {_band_text(row['held'])}"
            mark = row["verdict"]
            if mark == "deviates":
                mark += f" ({row['reason']})"
            lines.append(f"[claims]   {text}: {mark}")
            if row["verdict"] == "FAIL":
                failures.append(
                    f"{exp_id}: claim {text} — \"{says[row['claim']]}\""
                )
        rows.extend(verdicts)
    return rows, failures, lines


# -- result sourcing --------------------------------------------------------


def _table_from_entry(entry: Dict[str, Any]) -> ResultTable:
    """Accept a worker/cache entry ({... 'result': {...}}) or a bare result."""
    if "result" in entry and isinstance(entry["result"], dict):
        table = ResultTable(entry["result"])
        table.digest = entry.get("digest", "")
        return table
    return ResultTable(entry)


def resolve_result(
    exp_id: str,
    scale: float,
    cache: ResultCache,
    results_dir: Optional[Path] = None,
    fidelity: str = "packet",
) -> Tuple[Optional[ResultTable], str]:
    """Look up the experiment's result table at ``scale``.

    Tries a ``<exp_id>.json`` entry under ``results_dir``, then the
    digest-keyed sweep cache (``fidelity`` is part of the digest).
    Returns ``(table, source)`` with source in {"results-dir", "cache"},
    or ``(None, reason)`` where the reason ends in the sweep command
    that produces the missing entry.
    """
    if results_dir is not None:
        p = Path(results_dir) / f"{exp_id}.json"
        if p.exists():
            with open(p, "r", encoding="utf-8") as f:
                return _table_from_entry(json.load(f)), "results-dir"
    from repro.runner.digest import experiment_digest

    digest, _ = experiment_digest(exp_id, scale, fidelity=fidelity)
    entry = cache.load(digest)
    if entry is not None:
        return _table_from_entry(entry), "cache"
    cmd = f"repro-udt sweep --only {exp_id} --scale {scale:g}"
    if fidelity != "packet":
        cmd += f" --fidelity {fidelity}"
    if cache.root != default_cache_dir():
        cmd += f" --cache-dir {cache.root}"
    return None, (
        f"no {fidelity} result at scale={scale:g} in {cache.root} "
        f"(digest {digest[:12]}); run: {cmd}"
    )


# -- CLI --------------------------------------------------------------------


def _parse_only(raw: Optional[str]) -> Optional[List[str]]:
    if not raw:
        return None
    return [s for s in raw.replace(" ", "").split(",") if s]


def _gather(
    fig_ids: Iterable[str],
    scales: Dict[str, float],
    args: argparse.Namespace,
    cache: ResultCache,
    known: Container[str],
    what: str,
    fidelity: str = "packet",
) -> Tuple[Dict[str, ResultTable], List[str]]:
    """Resolve result tables for ``fig_ids``; returns (tables, problems).
    An id ``known`` lacks is a problem: "no ``what`` registered"."""
    results_dir = Path(args.results) if args.results else None
    tables: Dict[str, ResultTable] = {}
    problems: List[str] = []
    for fig_id in fig_ids:
        if fig_id not in known:
            problems.append(f"{fig_id}: no {what} registered")
            continue
        table, source = resolve_result(
            fig_id,
            scales[fig_id],
            cache,
            results_dir=results_dir,
            fidelity=fidelity,
        )
        if table is None:
            problems.append(f"{fig_id}: {source}")
        else:
            print(f"[figures] {fig_id}: result from {source} ({fidelity})")
            tables[fig_id] = table
    return tables, problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.figures",
        description="Gate swept results against the paper's claims "
        "(repro.obs.claims) and the figures' headline metrics against the "
        "committed fidelity ledger (benchmarks/results/BENCH_fidelity.json); "
        "render paper figures as SVG.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--gate",
        action="store_true",
        help="evaluate every claim of the experiments asked for (pass / "
        "deviates (reason) / FAIL) and, for those with a figure spec, fail "
        "on headline-metric drift beyond the ledger's tolerance bands",
    )
    mode.add_argument(
        "--update",
        action="store_true",
        help="re-snapshot the ledger's metrics from current results "
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
        help=f"fidelity ledger path (default {DEFAULT_LEDGER})",
    )
    parser.add_argument(
        "--only",
        metavar="FIG,...",
        default=None,
        help="restrict to these experiment ids (default: --gate every "
        "registered experiment, otherwise every ledger entry; "
        "--update/--render with no ledger require --only)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="S",
        help="REPRO_SCALE the results were swept at (default: the "
        "environment's, as for the sweep — for claims; each ledger entry's "
        "recorded scale for drift, --update and --render)",
    )
    parser.add_argument(
        "--results",
        metavar="DIR",
        default=None,
        help="directory of <exp>.json result entries to prefer over the "
        "cache (e.g. a sweep worker output dir)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="sweep result cache to resolve results from (default "
        "$REPRO_CACHE_DIR or .repro-cache); a figure found in neither "
        "place fails with the 'repro-udt sweep' line that produces it",
    )
    parser.add_argument(
        "--fidelity",
        choices=["packet", "hybrid"],
        default="packet",
        help="simulation tier to gate/update (docs/SIMULATION.md): "
        "hybrid compares against each entry's 'hybrid' section using "
        "the wider hybrid tolerance bands; metrics the fidelity "
        "contract leaves undefined in hybrid are skipped, and claims are "
        "a packet-level matter",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="with --gate, also write the verdict table (one row per "
        "claim, plus the drift-checked metrics; a hybrid gate has only the "
        "latter) as JSON to PATH",
    )
    args = parser.parse_args(argv)

    ledger_path = Path(args.ledger) if args.ledger else DEFAULT_LEDGER
    ledger = read_ledger(ledger_path)
    only = _parse_only(args.only)
    cache = ResultCache(Path(args.cache_dir) if args.cache_dir else None)
    hybrid = args.fidelity == "hybrid"
    if args.scale is not None:
        scale = args.scale
    else:
        from repro.experiments.common import scale as env_scale

        scale = env_scale()

    def snapshot_scales(fig_ids: Iterable[str]) -> Dict[str, float]:
        """``--scale``, else the scale each figure's ledger entry (its
        hybrid section, for a hybrid run) was snapshotted at."""
        if args.scale is not None:
            return dict.fromkeys(fig_ids, scale)
        scales = {}
        for fig_id in fig_ids:
            entry = ledger["figures"].get(fig_id, {})
            if hybrid:
                entry = {**entry, **entry.get("hybrid", {})}
            scales[fig_id] = float(entry.get("scale", scale))
        return scales

    if args.render is not None:
        out_dir = Path(args.render)
        fig_ids = only if only else (sorted(ledger["figures"]) or sorted(SPECS))
        tables, problems = _gather(
            fig_ids, snapshot_scales(fig_ids), args, cache, SPECS, "figure spec",
            fidelity=args.fidelity,
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        for fig_id, table in tables.items():
            svg = render_figure(get_spec(fig_id), table)
            path = out_dir / f"{fig_id}.svg"
            path.write_text(svg, encoding="utf-8")
            print(f"[figures] {fig_id} -> {path}")
        for p in problems:
            print(f"[figures] WARNING: {p}", file=sys.stderr)
        return 0 if not problems else 1

    verdicts: List[Dict[str, Any]] = []
    if args.gate and not hybrid:
        # Two questions, two scales.  Do the rows match the paper?  Asked of
        # the rows swept at one scale (--scale, else REPRO_SCALE, the sweep's
        # own default), whatever any ledger says.  Do they match the last
        # accepted run?  Asked at the scale that run was snapshotted at.
        if only:
            fig_ids = only
        else:
            from repro.experiments import REGISTRY

            fig_ids = list(REGISTRY)
        tables, problems = _gather(
            fig_ids, dict.fromkeys(fig_ids, scale), args, cache, METRICS, "claims"
        )
        verdicts, failures, lines = check_claims(tables, scale)
        at = snapshot_scales(f for f in fig_ids if f in SPECS)
        elsewhere, missing = _gather(
            [f for f in at if at[f] != scale], at, args, cache, SPECS, "figure spec"
        )
        problems += missing
        snapshots = {f: tables[f] for f in at if at[f] == scale and f in tables}
        current = {
            fig_id: compute_metrics(get_spec(fig_id), table)
            for fig_id, table in {**snapshots, **elsewhere}.items()
        }
        if current:  # a miss is reported once, by its sweep line
            drifted, drift_lines = check_fidelity(current, ledger, only=sorted(current))
            failures.extend(drifted)
            lines.extend(drift_lines)
        document = {"kind": "bench.claims", "claims": verdicts, "drift": current}
    else:
        if only:
            fig_ids = only
        else:
            fig_ids = sorted(ledger["figures"])
            if hybrid:  # the figures that have a hybrid contract
                fig_ids = [f for f in fig_ids if "hybrid" in ledger["figures"][f]]
        if not fig_ids:
            print(
                f"[figures] {ledger_path} has no entries; use "
                "--update --only FIG,... to create them",
                file=sys.stderr,
            )
            return 1
        scales = snapshot_scales(fig_ids)
        tables, problems = _gather(
            fig_ids, scales, args, cache, SPECS, "figure spec", fidelity=args.fidelity
        )
        if args.update:
            for fig_id, table in tables.items():
                spec = get_spec(fig_id)
                old = ledger["figures"].get(fig_id, {})
                if hybrid:
                    # Hybrid sections are additive: the packet entry (metrics,
                    # tolerances, scale) stays authoritative for the packet gate.
                    section = ledger_entry(
                        spec, table, scales[fig_id], tols=hybrid_tolerances
                    )
                    # packet reference at the same scale: a run at paper
                    # scale can take hours, so "where feasible" means
                    # "already swept" (docs/SIMULATION.md); --results
                    # entries are hybrid results here, so cache only
                    p_table, _ = resolve_result(fig_id, scales[fig_id], cache)
                    if p_table is not None:
                        section["packet_metrics"] = _snapshot_metrics(spec, p_table)
                        print(f"[figures] {fig_id}: packet reference from cache")
                    else:
                        print(
                            f"[figures] {fig_id}: no same-scale packet reference "
                            "cached; hybrid gate will drift-check against the "
                            "hybrid snapshot itself"
                        )
                    ledger["figures"][fig_id] = {**old, "hybrid": section}
                    print(f"[figures] {fig_id}: hybrid ledger section updated")
                else:
                    new = ledger_entry(spec, table, scales[fig_id])
                    if "hybrid" in old:
                        new["hybrid"] = old["hybrid"]
                    ledger["figures"][fig_id] = new
                    print(f"[figures] {fig_id}: ledger entry updated")
            for p in problems:
                print(f"[figures] WARNING: {p}", file=sys.stderr)
            write_json_atomic(ledger_path, ledger)
            print(f"[figures] ledger -> {ledger_path}")
            return 0 if not problems else 1
        current = {
            fig_id: compute_metrics(get_spec(fig_id), table)
            for fig_id, table in tables.items()
        }
        reference, ref_problems = hybrid_reference_ledger(ledger, fig_ids)
        failures, lines = check_fidelity(
            current, reference, only=sorted(reference["figures"])
        )
        failures.extend(ref_problems)
        document = {"kind": "bench.drift", "drift": current}

    failures.extend(problems)
    for line in lines:
        print(line)
    if args.json:
        document.update(schema=CLAIMS_SCHEMA, failures=failures, passed=not failures)
        write_json_atomic(Path(args.json), document)
    for failure in failures:
        print(f"[fidelity] FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    if verdicts:
        deviating = sum(r["verdict"] == "deviates" for r in verdicts)
        print(
            f"[fidelity] {len(tables)} experiment(s): "
            f"{len(verdicts) - deviating} claim(s) pass, {deviating} deviate "
            "with a written reason, none FAIL"
        )
    print(f"[fidelity] no drift beyond tolerance ({len(current)} figure(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
