"""Inline-SVG rendering of figures and CC timelines.

Turns a :class:`~repro.obs.figspec.FigureSpec` plus an experiment's
result table (and, for time series, a
:class:`~repro.obs.timeline.TimelineRecorder`) into a self-contained
inline-SVG figure.  Zero dependencies: the renderer is hand-rolled SVG
string generation, styled after the repo's qlog-inspired tooling.
Every series group carries machine-readable ``data-x``/``data-y``
attributes holding the *raw* values, so tests (and curious readers)
can round-trip the plotted data out of the picture.

A leaf module: it reads no file, ledger or cache and knows nothing of
the runner — :mod:`repro.obs.figures` (``--render``) and
:mod:`repro.obs.html` (the dashboard) hand it tables and recorders.
"""

from __future__ import annotations

import json
import math
from html import escape
from typing import Any, List, Optional, Sequence, Tuple

from repro.obs.figspec import FigureSpec, ResultTable

# -- chart chrome (dataviz reference palette, light mode) -------------------
#: Categorical series slots, assigned in fixed order, never cycled.  The
#: first three validate all-pairs for colour-vision deficiency; figures
#: here never exceed three series.
SERIES_COLORS = ("#2a78d6", "#eb6834", "#1baf7a")
SURFACE = "#fcfcfb"
GRID = "#e1e0d9"
AXIS = "#c3c2b7"
MUTED = "#898781"
INK = "#0b0b0b"
INK2 = "#52514e"
#: Status colours for annotations (reserved; never used as series hues).
LOSS_MARK = "#ec835a"  # serious: receiver loss / NAK marks
EXP_MARK = "#d03b3b"  # critical: EXP timeout marks
FONT = "system-ui, -apple-system, 'Segoe UI', sans-serif"


# -- scales and ticks -------------------------------------------------------


def _nice_ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """~n round tick values covering [lo, hi] (1/2/5 ladder)."""
    if hi <= lo:
        hi = lo + (abs(lo) or 1.0)
    span = hi - lo
    raw = span / max(1, n)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= n:
            break
    first = math.floor(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        if v >= lo - step * 1e-9:
            ticks.append(0.0 if abs(v) < step * 1e-9 else v)
        v += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> List[float]:
    """Powers of 10 spanning [lo, hi] (log-scale tick values)."""
    lo = max(lo, 1e-12)
    hi = max(hi, lo * 10)
    ticks = [
        10.0 ** e
        for e in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
    ]
    return ticks


def _fmt_num(v: float) -> str:
    """Compact tick/tooltip number formatting."""
    if v == 0:
        return "0"
    a = abs(v)
    if a >= 1e6 or a < 1e-3:
        return f"{v:.0e}".replace("e+0", "e").replace("e-0", "e-")
    if a >= 100:
        return f"{v:.0f}"
    if a >= 1:
        s = f"{v:.2f}"
    else:
        s = f"{v:.4f}"
    return s.rstrip("0").rstrip(".")


class _Scale:
    """Maps data values to pixel positions, linear or log10."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float, log: bool = False):
        self.log = log
        if log:
            lo = max(lo, 1e-12)
            hi = max(hi, lo * 1.0000001)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            if hi <= lo:
                hi = lo + (abs(lo) or 1.0)
            self.lo, self.hi = lo, hi
        self.p0, self.p1 = p0, p1

    def __call__(self, v: float) -> float:
        x = math.log10(max(v, 1e-12)) if self.log else v
        frac = (x - self.lo) / (self.hi - self.lo)
        return self.p0 + frac * (self.p1 - self.p0)


# -- SVG assembly -----------------------------------------------------------


def _attr(v: Any) -> str:
    return escape(str(v), quote=True)


def _data_attr(values: Sequence[Any]) -> str:
    """JSON-encode a value list for a ``data-*`` attribute."""
    return _attr(json.dumps(list(values)))


class _Svg:
    """Tiny append-only SVG builder."""

    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: List[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}" role="img" '
            f'font-family="{_attr(FONT)}">'
        ]

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def text(
        self,
        x: float,
        y: float,
        s: str,
        size: int = 12,
        fill: str = MUTED,
        anchor: str = "start",
        weight: str = "normal",
    ) -> None:
        self.add(
            f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" fill="{fill}" '
            f'text-anchor="{anchor}" font-weight="{weight}">{escape(s)}</text>'
        )

    def line(self, x1, y1, x2, y2, stroke, width=1.0) -> None:
        self.add(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )

    def finish(self) -> str:
        return "".join(self.parts) + "</svg>"


class _Frame:
    """Shared plot frame: margins, scales, grid, axes, title, legend."""

    def __init__(
        self,
        svg: _Svg,
        title: str,
        x_ticks: List[float],
        y_ticks: List[float],
        x_scale: _Scale,
        y_scale: _Scale,
        x_label: str = "",
        y_label: str = "",
    ):
        self.svg = svg
        self.xs = x_scale
        self.ys = y_scale
        svg.add(
            f'<rect x="0" y="0" width="{svg.width}" height="{svg.height}" '
            f'fill="{SURFACE}"/>'
        )
        if title:
            svg.text(16, 22, title, size=14, fill=INK, weight="600")
        # horizontal hairlines + y tick labels
        for t in y_ticks:
            y = y_scale(t)
            svg.line(x_scale.p0, y, x_scale.p1, y, GRID, 1)
            svg.text(x_scale.p0 - 8, y + 4, _fmt_num(t), size=11, anchor="end")
        # x ticks
        base_y = y_scale.p0  # pixel y of the value axis floor
        for t in x_ticks:
            x = x_scale(t)
            svg.line(x, base_y, x, base_y + 4, AXIS, 1)
            svg.text(x, base_y + 17, _fmt_num(t), size=11, anchor="middle")
        # baseline
        svg.line(x_scale.p0, base_y, x_scale.p1, base_y, AXIS, 1)
        if x_label:
            svg.text(
                (x_scale.p0 + x_scale.p1) / 2, svg.height - 8, x_label,
                size=11, fill=INK2, anchor="middle",
            )
        if y_label:
            cx, cy = 14, (y_scale.p0 + y_scale.p1) / 2
            self.svg.add(
                f'<text x="{cx}" y="{cy:.1f}" font-size="11" fill="{INK2}" '
                f'text-anchor="middle" transform="rotate(-90 {cx} {cy:.1f})">'
                f"{escape(y_label)}</text>"
            )

    def legend(self, entries: List[Tuple[str, str]], extra: str = "") -> None:
        """One row of chip+label pairs under the title (≥2 series only)."""
        x = 16.0
        y = 38.0
        for color, label in entries:
            self.svg.add(
                f'<rect x="{x:.1f}" y="{y - 9:.1f}" width="10" height="10" '
                f'rx="2" fill="{color}"/>'
            )
            self.svg.text(x + 15, y, label, size=12, fill=INK2)
            x += 15 + 7 * len(label) + 22
        if extra:
            self.svg.text(x, y, extra, size=11, fill=MUTED)


_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 50, 46


def _frame_box(width: int, height: int) -> Tuple[float, float, float, float]:
    """(x0, x1, y_floor, y_ceiling) pixel bounds of the plot area."""
    return (
        float(_MARGIN_L),
        float(width - _MARGIN_R),
        float(height - _MARGIN_B),
        float(_MARGIN_T),
    )


def _pad_domain(vals: Sequence[float], zero_floor: bool) -> Tuple[float, float]:
    lo, hi = min(vals), max(vals)
    if zero_floor and lo > 0:
        lo = 0.0
    span = (hi - lo) or (abs(hi) or 1.0)
    pad = span * 0.06
    return (lo if (zero_floor and lo == 0.0) else lo - pad), hi + pad


def render_figure(
    spec: FigureSpec,
    table: ResultTable,
    width: int = 720,
    height: int = 400,
) -> str:
    """Render one experiment result as a self-contained SVG figure."""
    if spec.kind == "bar":
        return _render_bar(spec, table, width, height)
    return _render_line(spec, table, width, height)


def _render_line(
    spec: FigureSpec, table: ResultTable, width: int, height: int
) -> str:
    xs = table.numeric_column(spec.x)
    series = [(name, table.numeric_column(name)) for name in spec.series]
    svg = _Svg(width, height)
    x0, x1, yf, yc = _frame_box(width, height)
    if spec.x_log:
        x_ticks = _log_ticks(min(xs), max(xs))
        x_scale = _Scale(min(min(xs), x_ticks[0]), max(max(xs), x_ticks[-1]), x0, x1, log=True)
    else:
        x_ticks = _nice_ticks(min(xs), max(xs))
        x_scale = _Scale(min(min(xs), x_ticks[0]), max(max(xs), x_ticks[-1]), x0, x1)
    all_y = [v for _, ys in series for v in ys]
    lo, hi = _pad_domain(all_y, zero_floor=min(all_y) > 0 and min(all_y) < 0.4 * max(all_y))
    y_ticks = _nice_ticks(lo, hi)
    y_scale = _Scale(min(lo, y_ticks[0]), max(hi, y_ticks[-1]), yf, yc)
    frame = _Frame(
        svg, table.title, x_ticks, y_ticks, x_scale, y_scale,
        x_label=spec.x, y_label=spec.y_label,
    )
    if len(series) >= 2:
        frame.legend(
            [(SERIES_COLORS[i], name) for i, (name, _) in enumerate(series)]
        )
    for i, (name, ys) in enumerate(series):
        color = SERIES_COLORS[i]
        pts = " ".join(
            f"{x_scale(x):.1f},{y_scale(y):.1f}" for x, y in zip(xs, ys)
        )
        svg.add(
            f'<g class="series" data-label="{_attr(name)}" '
            f'data-x="{_data_attr(xs)}" data-y="{_data_attr(ys)}">'
        )
        svg.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        for x, y in zip(xs, ys):
            svg.add(
                f'<circle cx="{x_scale(x):.1f}" cy="{y_scale(y):.1f}" r="3.5" '
                f'fill="{color}" stroke="{SURFACE}" stroke-width="1.5">'
                f"<title>{escape(name)}: {_fmt_num(y)} at {spec.x} {_fmt_num(x)}"
                f"</title></circle>"
            )
        # direct label at the line's end, in ink (colour never carries text)
        svg.text(
            min(x_scale(xs[-1]) + 8, width - 4),
            y_scale(ys[-1]) + 4,
            name,
            size=11,
            fill=INK2,
        )
        svg.add("</g>")
    return svg.finish()


def _bar_path(x: float, y_top: float, w: float, y_base: float, r: float = 3.0) -> str:
    """A bar with rounded top corners, square on the baseline."""
    r = min(r, w / 2, abs(y_base - y_top))
    return (
        f"M{x:.1f},{y_base:.1f} L{x:.1f},{y_top + r:.1f} "
        f"Q{x:.1f},{y_top:.1f} {x + r:.1f},{y_top:.1f} "
        f"L{x + w - r:.1f},{y_top:.1f} "
        f"Q{x + w:.1f},{y_top:.1f} {x + w:.1f},{y_top + r:.1f} "
        f"L{x + w:.1f},{y_base:.1f} Z"
    )


def _render_bar(
    spec: FigureSpec, table: ResultTable, width: int, height: int
) -> str:
    labels = [str(v) for v in table.column(spec.x)]
    series = [(name, table.numeric_column(name)) for name in spec.series]
    svg = _Svg(width, height)
    x0, x1, yf, yc = _frame_box(width, height)
    all_y = [v for _, ys in series for v in ys]
    hi = max(all_y + [0.0]) * 1.08 or 1.0
    y_ticks = _nice_ticks(0.0, hi)
    y_scale = _Scale(0.0, max(hi, y_ticks[-1]), yf, yc)
    frame = _Frame(svg, table.title, [], y_ticks, _Scale(0, 1, x0, x1), y_scale,
                   x_label=spec.x, y_label=spec.y_label)
    if len(series) >= 2:
        frame.legend(
            [(SERIES_COLORS[i], name) for i, (name, _) in enumerate(series)]
        )
    n_groups = max(1, len(labels))
    group_w = (x1 - x0) / n_groups
    bar_gap = 2.0  # surface gap between adjacent bars
    bar_w = max(
        2.0, min(48.0, (group_w * 0.72 - bar_gap * (len(series) - 1)) / len(series))
    )
    show_values = n_groups * len(series) <= 10
    for i, (name, ys) in enumerate(series):
        color = SERIES_COLORS[i]
        svg.add(
            f'<g class="series" data-label="{_attr(name)}" '
            f'data-x="{_data_attr(labels)}" data-y="{_data_attr(ys)}">'
        )
        for g, y in enumerate(ys):
            cx = x0 + (g + 0.5) * group_w
            total_w = len(series) * bar_w + (len(series) - 1) * bar_gap
            bx = cx - total_w / 2 + i * (bar_w + bar_gap)
            y_top = y_scale(y)
            svg.add(
                f'<path d="{_bar_path(bx, y_top, bar_w, yf)}" fill="{color}">'
                f"<title>{escape(name)} — {escape(labels[g])}: {_fmt_num(y)}"
                f"</title></path>"
            )
            if show_values:
                svg.text(
                    bx + bar_w / 2, y_top - 5, _fmt_num(y),
                    size=11, fill=INK2, anchor="middle",
                )
        svg.add("</g>")
    for g, label in enumerate(labels):
        # truncate long categorical labels rather than colliding
        shown = label if len(label) <= 14 else label[:13] + "…"
        svg.text(
            x0 + (g + 0.5) * group_w, yf + 17, shown, size=11, anchor="middle"
        )
    return svg.finish()


def render_timeline(
    recorder: Any,
    conns: Optional[Sequence[str]] = None,
    title: str = "sending rate over time",
    width: int = 720,
    height: int = 400,
    max_conns: int = 3,
    max_points: int = 400,
) -> Optional[str]:
    """Render per-connection CC rate trajectories with loss/EXP marks.

    ``recorder`` is a :class:`~repro.obs.timeline.TimelineRecorder` (live
    or rebuilt via ``from_jsonl``).  Returns None when it holds no
    samples.  At most ``max_conns`` series are drawn (the busiest
    first); each series is uniformly downsampled to ``max_points``.
    Loss marks (NAK/hole events) and EXP-timeout marks are drawn as
    status-coloured ticks along the baseline.
    """
    all_conns = conns if conns is not None else recorder.connections()
    ranked = sorted(all_conns, key=lambda c: -len(recorder.series(c)))
    picked = [c for c in ranked if recorder.series(c)][:max_conns]
    if not picked:
        return None
    picked.sort()
    svg = _Svg(width, height)
    x0, x1, yf, yc = _frame_box(width, height)
    t_hi = max(s.t for c in picked for s in recorder.series(c))
    t_lo = min(s.t for c in picked for s in recorder.series(c))
    x_ticks = _nice_ticks(t_lo, t_hi)
    x_scale = _Scale(min(t_lo, x_ticks[0]), max(t_hi, x_ticks[-1]), x0, x1)
    rate_hi = max(s.rate_bps for c in picked for s in recorder.series(c)) / 1e6
    y_ticks = _nice_ticks(0.0, rate_hi * 1.08 or 1.0)
    y_scale = _Scale(0.0, max(y_ticks[-1], rate_hi * 1.08 or 1.0), yf, yc)
    frame = _Frame(
        svg, title, x_ticks, y_ticks, x_scale, y_scale,
        x_label="virtual time (s)", y_label="sending rate (Mb/s)",
    )
    entries = [(SERIES_COLORS[i], c) for i, c in enumerate(picked)]
    extra = ""
    omitted = len([c for c in all_conns if recorder.series(c)]) - len(picked)
    if omitted > 0:
        extra = f"(+{omitted} more connection(s) not drawn)"
    loss_any = any(recorder.loss_times(c) for c in picked)
    exp_any = any(recorder.exp_times(c) for c in picked)
    if len(entries) >= 2 or extra or loss_any or exp_any:
        marks = []
        if loss_any:
            marks.append((LOSS_MARK, "loss/NAK"))
        if exp_any:
            marks.append((EXP_MARK, "EXP timeout"))
        frame.legend(entries + marks, extra=extra)
    for i, conn in enumerate(picked):
        color = SERIES_COLORS[i]
        samples = recorder.series(conn)
        stride = max(1, len(samples) // max_points)
        kept = samples[::stride]
        if samples[-1].t != kept[-1].t:
            kept.append(samples[-1])
        ts = [s.t for s in kept]
        ys = [s.rate_bps / 1e6 for s in kept]
        pts = " ".join(
            f"{x_scale(t):.1f},{y_scale(y):.1f}" for t, y in zip(ts, ys)
        )
        svg.add(
            f'<g class="series" data-label="{_attr(conn)}" data-stride="{stride}" '
            f'data-x="{_data_attr(ts)}" data-y="{_data_attr(ys)}">'
        )
        svg.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round">'
            f"<title>{escape(conn)}: {len(samples)} CC samples</title></polyline>"
        )
        svg.text(
            min(x_scale(ts[-1]) + 8, width - 4), y_scale(ys[-1]) + 4,
            conn, size=11, fill=INK2,
        )
        svg.add("</g>")
        # annotation ticks along the baseline (loss below, EXP above)
        losses = recorder.loss_times(conn)
        exps = recorder.exp_times(conn)
        if losses:
            svg.add(
                f'<g class="marks" data-kind="loss" data-conn="{_attr(conn)}" '
                f'data-x="{_data_attr(losses)}">'
            )
            for t in losses:
                x = x_scale(t)
                svg.line(x, yf + 1, x, yf + 7, LOSS_MARK, 1.5)
            svg.add("</g>")
        if exps:
            svg.add(
                f'<g class="marks" data-kind="exp" data-conn="{_attr(conn)}" '
                f'data-x="{_data_attr(exps)}">'
            )
            for t in exps:
                x = x_scale(t)
                svg.line(x, yf - 8, x, yf, EXP_MARK, 1.5)
            svg.add("</g>")
    return svg.finish()
