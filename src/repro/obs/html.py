"""Static HTML dashboard over figures, traces and bench history.

``repro-udt report --html OUT_DIR`` renders a self-contained
multi-page site: an index with sweep status, each experiment's latest
runtime (with its scale) and same-scale trend from the
``BENCH_runtime.json`` history and cache-hit stats, plus one page per
experiment carrying its inline-SVG figure, the fidelity gate's rows for
it (claim verdicts and drift against the committed ledger), a CC
timeline (if a trace is at hand), the loss-forensics summary and the
profiler category table.  Everything is hand-written HTML/SVG strings —
no template engine, no JavaScript, no external assets — so a page works
from ``file://``, a CI artifact zip, or an air-gapped review laptop.

Nothing here *runs* experiments: results come from a sweep's digest
cache at the fidelity ledger's scale, the lookup the gate makes; a figure
with no result there renders as "no result available" with the command
that would produce one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from html import escape
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs import figures as figmod
from repro.obs.claims import band_text, evaluate
from repro.obs.figspec import ResultTable, get_spec
from repro.obs.svg import _fmt_num, render_figure, render_timeline

Emit = Callable[[str], None]

_CSS = """
:root {
  color-scheme: light;
  --page: #f9f9f7; --surface: #fcfcfb;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --accent: #2a78d6; --good: #006300; --bad: #d03b3b; --warn: #ec835a;
}
* { box-sizing: border-box; }
body { margin: 0; background: var(--page); color: var(--ink);
  font-family: system-ui, -apple-system, 'Segoe UI', sans-serif;
  font-size: 15px; line-height: 1.45; }
main { max-width: 980px; margin: 0 auto; padding: 20px 24px 48px; }
h1 { font-size: 22px; margin: 12px 0 2px; }
h2 { font-size: 16px; margin: 0 0 10px; }
.sub { color: var(--ink2); margin: 0 0 8px; }
.crumb { font-size: 13px; color: var(--muted); margin-top: 16px; }
.crumb a { color: var(--accent); text-decoration: none; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0; }
.card > svg { max-width: 100%; height: auto; }
table { border-collapse: collapse; font-size: 14px; width: 100%; }
th { color: var(--ink2); text-align: left; font-weight: 600;
  border-bottom: 1px solid var(--axis); padding: 5px 14px 5px 0; }
td { padding: 5px 14px 5px 0; border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; vertical-align: middle; }
tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; }
.ok { color: var(--good); font-weight: 600; }
.bad { color: var(--bad); font-weight: 600; }
.dim { color: var(--muted); }
code { background: var(--page); border: 1px solid var(--grid);
  border-radius: 4px; padding: 1px 5px; font-size: 13px; }
.note { color: var(--ink2); font-size: 14px; }
"""


def _esc(v: Any) -> str:
    return escape(str(v))


def _fmt(v: Any) -> str:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return _esc(v)
    if isinstance(v, int):
        return f"{v}"
    return _fmt_num(float(v))


def _html_table(
    columns: Sequence[str], rows: Sequence[Sequence[Any]], numeric_from: int = 1
) -> str:
    num = ' class="num"'
    head = "".join(
        f"<th{num if i >= numeric_from else ''}>{_esc(c)}</th>"
        for i, c in enumerate(columns)
    )
    body = []
    for row in rows:
        cells = "".join(
            f"<td{num if i >= numeric_from else ''}>"
            f"{cell if isinstance(cell, _Raw) else _fmt(cell)}</td>"
            for i, cell in enumerate(row)
        )
        body.append(f"<tr>{cells}</tr>")
    return f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(body)}</tbody></table>"


class _Raw(str):
    """A cell whose content is already HTML (badges, sparklines, links)."""


def _page(title: str, body: str, crumb: str = "") -> str:
    return (
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><main>{crumb}{body}</main></body></html>\n"
    )


def _badge(ok: Optional[bool], ok_text: str = "✓ ok", bad_text: str = "✗ drifted") -> _Raw:
    if ok is None:
        return _Raw('<span class="dim">—</span>')
    if ok:
        return _Raw(f'<span class="ok">{_esc(ok_text)}</span>')
    return _Raw(f'<span class="bad">{_esc(bad_text)}</span>')


def _sparkline(values: Sequence[float], width: int = 150, height: int = 30) -> str:
    """Inline runtime-trend sparkline (seconds history, oldest→newest)."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return '<span class="dim">—</span>'
    lo, hi = min(vals), max(vals)
    span = (hi - lo) or (abs(hi) or 1.0)
    pad = 3.0
    xs = [pad + i * (width - 2 * pad) / (len(vals) - 1) for i in range(len(vals))]
    ys = [height - pad - (v - lo) / span * (height - 2 * pad) for v in vals]
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img" aria-label="runtime trend, {len(vals)} runs">'
        f'<title>{_fmt_num(vals[0])}s → {_fmt_num(vals[-1])}s '
        f"over {len(vals)} runs</title>"
        f'<polyline points="{pts}" fill="none" stroke="#2a78d6" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round"/>'
        f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="2.5" fill="#2a78d6"/>'
        "</svg>"
    )


# -- input collection -------------------------------------------------------


@dataclass
class DashboardInputs:
    """Everything :func:`build_dashboard` renders, pre-resolved."""

    tables: Dict[str, ResultTable] = field(default_factory=dict)
    #: exp_id -> where its result came from, or why there is none
    sources: Dict[str, str] = field(default_factory=dict)
    #: exp_id -> the fidelity gate's own rows for it (repro.obs.claims.evaluate)
    gate_rows: Dict[str, List[Dict[str, Any]]] = field(default_factory=dict)
    ledger: Dict[str, Any] = field(default_factory=dict)
    bench: Dict[str, Any] = field(default_factory=dict)
    traces: Dict[str, Path] = field(default_factory=dict)
    profiles: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    progress: Optional[Dict[str, Any]] = None

    def exp_ids(self) -> List[str]:
        recorded = self.ledger.get("experiments", {})
        return sorted(set(self.tables) | set(recorded) | set(self.traces))


def collect_inputs(
    cache_dir: Optional[Path] = None,
    bench_path: Optional[Path] = None,
    ledger_path: Optional[Path] = None,
    traces: Optional[Dict[str, Path]] = None,
    only: Optional[Sequence[str]] = None,
    progress_path: Optional[Path] = None,
) -> DashboardInputs:
    """Look the cache / ledgers up into dashboard inputs.

    Rows are found the one way the fidelity gate finds them: by digest in
    the sweep cache, at the fidelity ledger's scale, and each experiment
    that has rows gets the gate's own rows for them.  ``traces`` maps
    experiment id -> trace path (the single trace handed to ``repro-udt
    report``).  ``progress_path`` points at a ``sweep --progress`` feed
    (``progress.jsonl``); when it holds records, the index page gets a
    live-run card.  Nothing is executed; a missing result says which
    sweep would produce it.
    """
    from repro.experiments import REGISTRY
    from repro.experiments.common import RunArgs
    from repro.runner.cache import ResultCache, read_json_object
    from repro.runner.sweep import DEFAULT_BENCH

    inputs = DashboardInputs()
    if progress_path is not None:
        from repro.runner.progress import read_progress

        inputs.progress = read_progress(Path(progress_path))
    ledger = inputs.ledger = figmod.read_ledger(
        Path(ledger_path) if ledger_path else figmod.DEFAULT_LEDGER
    )
    inputs.bench = read_json_object(
        Path(bench_path) if bench_path else DEFAULT_BENCH
    )

    scale = figmod.section_scale(ledger, RunArgs.scale)
    wanted = [e for e in (only or REGISTRY) if e in REGISTRY]
    cache = ResultCache(Path(cache_dir) if cache_dir else None)
    inputs.tables, inputs.sources = figmod.resolve_tables(wanted, scale, cache)
    for exp_id, table in inputs.tables.items():
        inputs.sources[exp_id] = f"cache (scale={scale:g}, digest {table.digest[:12]})"
        recorded = figmod.recorded(ledger, exp_id)
        inputs.gate_rows[exp_id] = evaluate(exp_id, table, recorded)

    for exp_id, path in (traces or {}).items():
        inputs.traces[exp_id] = Path(path)

    # profiler snapshots: cwd and benchmarks/results
    for pattern_root in (Path("."), Path("benchmarks/results")):
        for path in sorted(pattern_root.glob("BENCH_profile_*.json")):
            exp_id = path.stem[len("BENCH_profile_"):]
            try:
                with open(path, "r", encoding="utf-8") as f:
                    inputs.profiles[exp_id] = json.load(f)
            except (json.JSONDecodeError, OSError):
                continue

    if only:
        keep = set(only)
        inputs.traces = {k: v for k, v in inputs.traces.items() if k in keep}
        ledger["experiments"] = {
            k: v for k, v in ledger["experiments"].items() if k in keep
        }
    return inputs


# -- fidelity + forensics fragments -----------------------------------------


def _fidelity_ok(rows: Sequence[Dict[str, Any]]) -> Optional[bool]:
    """No claim FAILs and nothing drifted; None when nothing was gated."""
    if not rows:
        return None
    return not any(r.get("verdict") == "FAIL" or r.get("drifted") for r in rows)


_VERDICT = {"pass": ("ok", "✓ pass"), "deviates": ("dim", "~ deviates"),
            "FAIL": ("bad", "✗ FAIL")}


def _fidelity_table(rows: Sequence[Dict[str, Any]]) -> str:
    """The gate's rows as a table: the claim's band and verdict (a
    deviation's reason as its tooltip), the recorded value and the drift."""
    cells: List[List[Any]] = []
    for r in rows:
        claim: Any = "—"
        if "verdict" in r:
            band = band_text(r["band"])
            if "held" in r:
                band += f", held {band_text(r['held'])}"
            cls, text = _VERDICT[r["verdict"]]
            claim = _Raw(
                f'{_esc(band)} <span class="{cls}" '
                f'title="{_esc(r.get("reason", ""))}">{text}</span>'
            )
        recorded: Any = "—"
        drift: Any = "—"
        if "drifted" in r:
            recorded = "not recorded" if r["recorded"] is None else r["recorded"]
            band = f"±{_fmt_num(r['allowed'])} " if "allowed" in r else ""
            drift = _Raw(_esc(band) + _badge(not r["drifted"]))
        value = "nan" if r["value"] is None else r["value"]
        cells.append([r["metric"], value, claim, recorded, drift])
    return _html_table(["metric", "value", "paper's band", "ledger", "drift"], cells)


def _forensics_fragment(exp_id: str, trace_path: Path) -> str:
    """Loss-forensics + timeline sections for one experiment's trace."""
    from repro.obs.report import render_report, summary_only_hint
    from repro.obs.spans import build_spans
    from repro.obs.timeline import TimelineRecorder

    parts: List[str] = []
    try:
        recorder = TimelineRecorder.from_trace(str(trace_path))
    except (OSError, ValueError):
        recorder = None
    if recorder is not None:
        svg = render_timeline(recorder, title="CC sending rate over time")
        if svg:
            parts.append(f'<div class="card"><h2>CC timeline</h2>{svg}</div>')
    try:
        spanset = build_spans(str(trace_path))
    except (OSError, ValueError):
        return "".join(parts)
    hint = summary_only_hint(spanset)
    if hint:
        parts.append(
            f'<div class="card"><h2>Loss forensics</h2>'
            f'<p class="note">{_esc(hint)}</p></div>'
        )
    else:
        parts.append(
            f'<div class="card"><h2>Loss forensics</h2>'
            f"<pre>{_esc(render_report(spanset))}</pre></div>"
        )
    return "".join(parts)


# -- page rendering ---------------------------------------------------------


def _progress_card(progress: Dict[str, Any]) -> str:
    """Live-run card from a ``sweep --progress`` feed (progress.jsonl)."""
    begin = progress.get("begin") or {}
    end = progress.get("end")
    workers: Dict[str, Dict[str, Any]] = progress.get("workers") or {}
    live = end is None
    title = "Live run" if live else "Last run"
    sub_bits = []
    if begin.get("selector"):
        sub_bits.append(f"sweep {begin['selector']}")
    if begin.get("scale") is not None:
        sub_bits.append(f"scale={begin['scale']:g}")
    if begin.get("jobs") is not None:
        sub_bits.append(f"jobs={begin['jobs']}")
    if begin.get("cached"):
        sub_bits.append(f"{len(begin['cached'])} cached")
    if end is not None:
        sub_bits.append(
            f"finished in {end.get('seconds', 0.0):.1f}s "
            f"({end.get('executed', 0)} executed, {end.get('failed', 0)} failed)"
        )
    ts = progress.get("ts")
    if live and isinstance(ts, (int, float)):
        age = max(0.0, time.time() - ts)
        sub_bits.append(f"last heartbeat {age:.0f}s ago")
    rows: List[List[Any]] = []
    order = [e for e in (begin.get("pending") or []) if e in workers]
    order += [e for e in sorted(workers) if e not in order]
    for exp_id in order:
        w = workers[exp_id]
        hb = w.get("last") or {}
        status = w.get("status", "running")
        if status == "done":
            badge = _badge(True, ok_text=f"✓ done {w.get('seconds', 0.0):.1f}s")
        elif status == "failed":
            badge = _badge(False, bad_text="✗ failed")
        else:
            badge = _Raw('<span class="dim">● running</span>')
        vt, vt_end = hb.get("vt"), hb.get("vt_end")
        if vt is not None and vt_end:
            frontier = f"{vt:.2f}/{vt_end:.2f}s ({min(100.0, 100.0*vt/vt_end):.0f}%)"
        elif vt is not None:
            frontier = f"{vt:.2f}s"
        else:
            frontier = "—"
        eps = hb.get("eps")
        eta = hb.get("eta")
        rows.append(
            [
                exp_id,
                badge,
                frontier,
                "—" if eps is None else f"{eps/1e3:.0f}k/s",
                "—" if hb.get("events") is None else f"{hb['events']:,}",
                "—" if eta is None or status != "running" else f"{eta:.0f}s",
                "—" if hb.get("wall") is None else f"{hb['wall']:.1f}s",
            ]
        )
    card = [f"<h2>{title}</h2>"]
    if sub_bits:
        card.append(f'<p class="note">{_esc(" · ".join(sub_bits))}</p>')
    if rows:
        card.append(
            _html_table(
                ["experiment", "status", "vtime frontier", "events/s",
                 "events", "eta", "wall"],
                rows,
                numeric_from=2,
            )
        )
    else:
        card.append('<p class="note">no worker activity recorded.</p>')
    return f'<div class="card">{"".join(card)}</div>'


def _experiment_page(exp_id: str, inputs: DashboardInputs) -> str:
    from repro.experiments import REGISTRY

    exp = REGISTRY.get(exp_id)
    title = exp_id if exp is None else f"{exp_id} — {exp.description}"
    artefact = "" if exp is None else exp.paper_artefact
    crumb = '<p class="crumb"><a href="index.html">← dashboard index</a></p>'
    body: List[str] = [f"<h1>{_esc(title)}</h1>"]
    if artefact:
        body.append(f'<p class="sub">paper artefact: {_esc(artefact)}</p>')

    table = inputs.tables.get(exp_id)
    spec = get_spec(exp_id)
    if table is not None and spec is not None:
        try:
            svg = render_figure(spec, table)
            body.append(f'<div class="card">{svg}</div>')
        except (KeyError, ValueError) as exc:
            body.append(
                f'<div class="card"><p class="note">figure not rendered: '
                f"{_esc(exc)}</p></div>"
            )
    elif table is None:
        miss = inputs.sources.get(exp_id, f"run: repro-udt sweep --only {exp_id}")
        body.append(
            f'<div class="card"><p class="note">no result available — '
            f"{_esc(miss)}</p></div>"
        )

    gate_rows = inputs.gate_rows.get(exp_id)
    if gate_rows:
        body.append(
            '<div class="card"><h2>Claims and drift vs committed ledger</h2>'
            + _fidelity_table(gate_rows)
            + '<p class="note">the rows <code>python -m repro.obs.figures '
            "--gate</code> reports for this result.</p></div>"
        )

    if exp_id in inputs.traces:
        body.append(_forensics_fragment(exp_id, inputs.traces[exp_id]))

    prof = inputs.profiles.get(exp_id)
    cats = (prof or {}).get("categories")
    if cats:
        rows = [
            [
                c.get("category", "?"),
                c.get("events", 0),
                f"{c.get('seconds', 0.0):.3f}",
                f"{100.0 * c.get('share', 0.0):.1f}%",
            ]
            for c in cats
        ]
        body.append(
            '<div class="card"><h2>Hot-path profile</h2>'
            + _html_table(["category", "events", "seconds", "share"], rows)
            + "</div>"
        )

    if table is not None:
        src = inputs.sources.get(exp_id, "")
        body.append(
            f'<div class="card"><h2>Result table</h2>'
            + _html_table(table.columns, table.rows)
            + (f'<p class="note">source: {_esc(src)}</p>' if src else "")
            + (f'<p class="note">{_esc(table.notes)}</p>' if table.notes else "")
            + "</div>"
        )
    return _page(title, "".join(body), crumb=crumb)


def _index_page(inputs: DashboardInputs, generated: str) -> str:
    from repro.experiments import REGISTRY

    body: List[str] = [
        "<h1>UDT repro dashboard</h1>",
        f'<p class="sub">figures, fidelity and runtime history · generated '
        f"{_esc(generated)}</p>",
    ]
    if inputs.progress:
        body.append(_progress_card(inputs.progress))

    # experiments table with fidelity badge + runtime trend; a runtime
    # means nothing without its scale, so the latest history entry is
    # shown as "seconds @ scale" and the trend keeps only that scale
    history = inputs.bench.get("history", {})
    rows: List[List[Any]] = []
    for exp_id in inputs.exp_ids():
        exp = REGISTRY.get(exp_id)
        fid_ok = _fidelity_ok(inputs.gate_rows.get(exp_id, ()))
        runs = [h for h in history.get(exp_id, []) if "seconds" in h]
        latest = "—"
        trend: List[float] = []
        if runs:
            scale = runs[-1].get("scale")
            latest = f"{runs[-1]['seconds']:.1f}s @ " + (
                "?" if scale is None else f"{scale:g}"
            )
            trend = [h["seconds"] for h in runs if h.get("scale") == scale]
        rows.append(
            [
                _Raw(f'<a href="{_esc(exp_id)}.html">{_esc(exp_id)}</a>'),
                "" if exp is None else exp.paper_artefact,
                _Raw(_badge(fid_ok, bad_text="✗ FAIL or drift")),
                latest,
                _Raw(_sparkline(trend)),
            ]
        )
    body.append(
        '<div class="card"><h2>Experiments</h2>'
        + _html_table(
            ["experiment", "paper artefact", "fidelity", "latest runtime", "trend"],
            rows,
            numeric_from=3,
        )
        + '<p class="note">latest runtime: the newest entry of the '
        "<code>BENCH_runtime.json</code> history, with the scale it ran at; "
        "trend: earlier runs at that same scale (oldest → newest).</p></div>"
    )

    # sweep status + cache-hit stats from the runtime ledger
    sweeps = inputs.bench.get("sweeps", {})
    if sweeps:
        srows = []
        for key, s in sorted(sweeps.items()):
            n = s.get("experiments", 0)
            cached = s.get("cached", 0)
            hit = f"{cached}/{n}" if n else "—"
            srows.append(
                [key, n, hit, f"{s.get('seconds', 0.0):.1f}s"]
            )
        body.append(
            '<div class="card"><h2>Sweep status</h2>'
            + _html_table(
                ["sweep", "experiments", "cache hits", "wall time"], srows
            )
            + "</div>"
        )
    return _page("UDT repro dashboard", "".join(body))


def build_dashboard(
    out_dir: Path,
    inputs: DashboardInputs,
    emit: Optional[Emit] = None,
) -> Path:
    """Write the whole site under ``out_dir``; returns the index path."""
    say: Emit = emit if emit is not None else (lambda s: None)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    generated = time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime())
    for exp_id in inputs.exp_ids():
        page = _experiment_page(exp_id, inputs)
        (out / f"{exp_id}.html").write_text(page, encoding="utf-8")
    index = out / "index.html"
    index.write_text(_index_page(inputs, generated), encoding="utf-8")
    say(f"[html] dashboard ({len(inputs.exp_ids())} experiment pages) -> {index}")
    return index
