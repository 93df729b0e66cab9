"""Figure specs: how each experiment's result becomes a rendered figure.

The experiments emit :class:`~repro.experiments.common.ExperimentResult`
tables — the *data* behind the paper's figures.  A :class:`FigureSpec`
declares, per experiment id, how that table is drawn (which column is
the x axis, which columns are series, line vs bar, log scales) and which
**headline metrics** summarise the figure's behaviour (mean Jain index,
loss-event counts, throughput means).  The metrics are what the fidelity
ledger (``benchmarks/results/BENCH_fidelity.json``) snapshots and what
``python -m repro.obs.figures --gate`` drift-checks, so a behavioural
regression shows up the same way a runtime regression already does.

Specs are declarative and renderer-agnostic: :mod:`repro.obs.svg`
turns (spec, table) into inline SVG, :mod:`repro.obs.html` embeds the
SVG in the static dashboard, and the gate only ever consumes
:func:`compute_metrics` output.  Experiments without a spec still appear
in the dashboard as plain tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


class ResultTable:
    """Uniform wrapper over an ``ExperimentResult`` or its ``asdict`` form.

    Sweep cache entries and worker output files store results as plain
    dicts (``{"exp_id", "title", "columns", "rows", "notes", ...}``);
    in-process runs hand over the dataclass itself.  Specs and renderers
    only ever see this wrapper.
    """

    def __init__(self, data: Any):
        if isinstance(data, dict):
            self.exp_id = data.get("exp_id", "")
            self.title = data.get("title", "")
            self.columns: List[str] = list(data.get("columns", []))
            self.rows: List[Sequence[Any]] = [list(r) for r in data.get("rows", [])]
            self.notes = data.get("notes", "")
            self.paper_reference = data.get("paper_reference", "")
        else:  # ExperimentResult (anything with the same attributes)
            self.exp_id = data.exp_id
            self.title = data.title
            self.columns = list(data.columns)
            self.rows = [list(r) for r in data.rows]
            self.notes = data.notes
            self.paper_reference = data.paper_reference

    def column(self, name: str) -> List[Any]:
        idx = self.columns.index(name)
        return [r[idx] for r in self.rows]

    def numeric_column(self, name: str) -> List[float]:
        """The column as floats; raises if any cell is non-numeric."""
        out = []
        for v in self.column(name):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(
                    f"{self.exp_id}: column {name!r} holds non-numeric {v!r}"
                )
            out.append(float(v))
        return out

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class MetricSpec:
    """One headline metric: a name, an extractor, and a tolerance band.

    ``tolerance`` is the half-width of the acceptance band around the
    ledger value.  It is interpreted as an *absolute* delta when
    ``relative`` is False (right for indices near 1.0) and as a fraction
    of the ledger value when True (right for throughputs and counts).

    ``hybrid`` / ``hybrid_tolerance`` define the metric's fidelity
    contract under the hybrid simulation tier (docs/SIMULATION.md):
    ``hybrid=False`` marks the metric *undefined* in hybrid mode (it
    measures packet-level texture the analytic spans smooth away, e.g.
    oscillation indices) and it is skipped by the hybrid gate;
    ``hybrid_tolerance`` widens the band used when comparing a hybrid
    run against a packet reference (``None`` reuses ``tolerance``).
    """

    name: str
    fn: Callable[[ResultTable], float]
    tolerance: float
    relative: bool = False
    description: str = ""
    hybrid: bool = True
    hybrid_tolerance: Optional[float] = None


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure's rendering + metrics."""

    fig_id: str
    x: str  #: column holding the x values
    series: Tuple[str, ...]  #: columns plotted as y series
    kind: str = "line"  #: "line" (numeric x) or "bar" (categorical x)
    x_log: bool = False
    y_label: str = ""
    caption: str = ""  #: the paper's expected shape, one line
    metrics: Tuple[MetricSpec, ...] = ()


# -- metric extractor helpers -----------------------------------------------


def _mean(col: str) -> Callable[[ResultTable], float]:
    return lambda t: (
        sum(t.numeric_column(col)) / len(t) if len(t) else 0.0
    )


def _min(col: str) -> Callable[[ResultTable], float]:
    return lambda t: min(t.numeric_column(col)) if len(t) else 0.0


def _max(col: str) -> Callable[[ResultTable], float]:
    return lambda t: max(t.numeric_column(col)) if len(t) else 0.0


def _count(t: ResultTable) -> float:
    return float(len(t))


def _max_abs_err_from_1(col: str) -> Callable[[ResultTable], float]:
    return lambda t: (
        max(abs(v - 1.0) for v in t.numeric_column(col)) if len(t) else 0.0
    )


# -- the registry -----------------------------------------------------------

#: exp_id -> FigureSpec.  Experiments not listed here render as plain
#: tables in the dashboard and cannot carry fidelity-ledger entries.
SPECS: Dict[str, FigureSpec] = {}


def _spec(spec: FigureSpec) -> None:
    SPECS[spec.fig_id] = spec


_spec(
    FigureSpec(
        "fig02",
        x="RTT (ms)",
        series=("UDT", "TCP"),
        x_log=True,
        y_label="Jain fairness index",
        caption="UDT ~1.0 across RTTs; TCP decays as RTT grows.",
        metrics=(
            MetricSpec(
                "udt_jain_mean",
                _mean("UDT"),
                0.02,
                description="mean Jain index of the UDT sweep",
                # analytic spans share exactly (Jain -> 1.0); packet runs
                # oscillate a few percent below
                hybrid_tolerance=0.08,
            ),
            MetricSpec(
                "udt_jain_min",
                _min("UDT"),
                0.04,
                description="worst-case UDT Jain index",
                hybrid_tolerance=0.12,
            ),
            MetricSpec(
                "tcp_jain_mean",
                _mean("TCP"),
                0.05,
                description="mean Jain index of the TCP sweep",
                # TCP flows veto fluid spans: packet-level either way
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig03",
        x="flows",
        series=("stddev (Mb/s)",),
        y_label="per-flow stddev (Mb/s)",
        caption="Oscillation grows with concurrency; utilisation stays high.",
        metrics=(
            MetricSpec(
                "stddev_max_mbps",
                _max("stddev (Mb/s)"),
                0.25,
                relative=True,
                description="largest per-flow throughput stddev in the sweep",
            ),
            MetricSpec(
                "aggregate_min_mbps",
                _min("aggregate (Mb/s)"),
                0.10,
                relative=True,
                description="worst aggregate utilisation in the sweep",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig04",
        x="RTT (ms)",
        series=("UDT", "TCP"),
        x_log=True,
        y_label="stability index (lower is better)",
        caption="UDT more stable than TCP except in the ~1-10 ms band.",
        metrics=(
            MetricSpec(
                "udt_stability_mean",
                _mean("UDT"),
                0.15,
                relative=True,
                description="mean UDT stability index (lower is more stable)",
                # oscillation texture is exactly what fluid spans smooth
                # away: undefined under the hybrid tier
                hybrid=False,
            ),
            MetricSpec(
                "tcp_stability_mean",
                _mean("TCP"),
                0.15,
                relative=True,
                description="mean TCP stability index",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig05",
        x="RTT (ms)",
        series=("T index",),
        x_log=True,
        y_label="TCP friendliness index",
        caption="TCP keeps a sizeable share of its fair rate alongside UDT.",
        metrics=(
            MetricSpec(
                "t_index_mean",
                _mean("T index"),
                0.10,
                description="mean friendliness index across the RTT sweep",
            ),
            MetricSpec(
                "t_index_min",
                _min("T index"),
                0.10,
                description="worst-case friendliness index",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig06",
        x="flow2 RTT (ms)",
        series=("ratio",),
        x_log=True,
        y_label="throughput ratio (var-RTT / 100 ms flow)",
        caption="Constant SYN makes throughput RTT-independent: ratio ~1.0.",
        metrics=(
            MetricSpec(
                "ratio_max_abs_err",
                _max_abs_err_from_1("ratio"),
                0.10,
                description="largest |ratio - 1| across the RTT sweep",
                # the packet engine's long-RTT (>=500 ms) unfairness is a
                # discrete-feedback effect; analytic spans share max-min
                # fairly, so the hybrid ratio error collapses towards 0
                # (0.45 -> 0.01 at scale=1.0): undefined under hybrid
                hybrid=False,
            ),
            MetricSpec(
                "ref_flow_mean_mbps",
                _mean("flow1 Mb/s"),
                0.10,
                relative=True,
                description="mean throughput of the fixed-RTT reference flow",
                # the reference flow's surplus at long RTT comes from the
                # same discrete-feedback unfairness the spans idealise
                # away, so its mean sits up to ~20% below packet runs
                hybrid_tolerance=0.20,
            ),
            MetricSpec(
                "var_flow_mean_mbps",
                _mean("flow2 Mb/s"),
                0.10,
                relative=True,
                description="mean throughput of the variable-RTT flow",
                hybrid_tolerance=0.20,
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig07",
        x="time (s)",
        series=("with FC", "without FC"),
        y_label="throughput (Mb/s)",
        caption="Flow control holds the rate smooth near capacity.",
        metrics=(
            MetricSpec(
                "with_fc_mean_mbps",
                _mean("with FC"),
                0.10,
                relative=True,
                description="mean throughput with flow control",
            ),
            MetricSpec(
                "without_fc_mean_mbps",
                _mean("without FC"),
                0.20,
                relative=True,
                description="mean throughput without flow control",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig08",
        x="loss event #",
        series=("lost packets",),
        kind="bar",
        y_label="lost packets per event",
        caption="Loss events of thousands of packets under a bursting blast.",
        metrics=(
            MetricSpec(
                "loss_events",
                _count,
                0.25,
                relative=True,
                description="number of receiver loss events",
                # blast ON windows run packet-level in hybrid mode, but
                # the analytic spans between bursts skip the background
                # self-congestion losses of a saturated sender, so event
                # *counts* (and the extreme tail fed by count) sit up to
                # ~half below packet runs at paper scale; the per-event
                # shape (loss_mean_pkts) stays tight
                hybrid_tolerance=0.60,
            ),
            MetricSpec(
                "loss_max_pkts",
                _max("lost packets"),
                0.25,
                relative=True,
                description="largest single loss event (packets)",
                hybrid_tolerance=0.60,
            ),
            MetricSpec(
                "loss_mean_pkts",
                _mean("lost packets"),
                0.25,
                relative=True,
                description="mean lost packets per event",
                hybrid_tolerance=0.40,
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig09",
        x="structure",
        series=("insert mean", "query mean", "delete mean"),
        kind="bar",
        y_label="access time (µs)",
        caption="~1 µs per access, independent of loss-list size.",
        metrics=(
            MetricSpec(
                "insert_mean_us",
                _mean("insert mean"),
                0.50,
                relative=True,
                description="mean insert time across structures",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig11",
        x="path",
        series=("UDT", "TCP (tuned)"),
        kind="bar",
        y_label="throughput (Mb/s)",
        caption="UDT saturates every path; tuned TCP falls behind.",
        metrics=(
            MetricSpec(
                "udt_mean_mbps",
                _mean("UDT"),
                0.10,
                relative=True,
                description="mean UDT throughput across paths",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig12",
        x="destination",
        series=("UDT", "TCP"),
        kind="bar",
        y_label="throughput (Mb/s)",
        caption="UDT splits the shared egress evenly; TCP is RTT-biased.",
        metrics=(
            MetricSpec(
                "udt_min_mbps",
                _min("UDT"),
                0.15,
                relative=True,
                description="slowest UDT destination share",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig13",
        x="UDT flows",
        series=("TCP aggregate (Mb/s)",),
        y_label="short-TCP aggregate (Mb/s)",
        caption="Short-TCP aggregate decays gently as UDT flows pile up.",
        metrics=(
            MetricSpec(
                "tcp_aggregate_min_mbps",
                _min("TCP aggregate (Mb/s)"),
                0.20,
                relative=True,
                description="short-TCP aggregate under the most UDT flows",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig14",
        x="protocol",
        series=("sending CPU %", "receiving CPU %"),
        kind="bar",
        y_label="CPU utilisation (%)",
        caption="UDT's CPU cost is close to TCP's at the same rate.",
        metrics=(
            MetricSpec(
                "send_cpu_mean_pct",
                _mean("sending CPU %"),
                0.15,
                relative=True,
                description="mean sending-side CPU across protocols",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "fig15",
        x="MSS (bytes)",
        series=("throughput (Mb/s)",),
        y_label="throughput (Mb/s)",
        caption="Throughput peaks at MSS = path MTU (1500).",
        metrics=(
            MetricSpec(
                "best_throughput_mbps",
                _max("throughput (Mb/s)"),
                0.10,
                relative=True,
                description="throughput at the best packet size",
            ),
        ),
    )
)

_spec(
    FigureSpec(
        "ablation-syn",
        x="SYN (ms)",
        series=("UDT alone Mb/s", "TCP share vs 1 UDT (Mb/s)"),
        x_log=True,
        y_label="throughput (Mb/s)",
        caption="Shorter SYN: more efficiency, less TCP friendliness.",
        metrics=(
            MetricSpec(
                "udt_alone_max_mbps",
                _max("UDT alone Mb/s"),
                0.10,
                relative=True,
                description="best standalone UDT throughput in the sweep",
            ),
        ),
    )
)


def get_spec(fig_id: str) -> Optional[FigureSpec]:
    return SPECS.get(fig_id)


def compute_metrics(spec: FigureSpec, table: ResultTable) -> Dict[str, float]:
    """Evaluate every headline metric of ``spec`` against ``table``."""
    return {m.name: float(m.fn(table)) for m in spec.metrics}


def tolerances(spec: FigureSpec) -> Dict[str, Dict[str, Any]]:
    """The spec's tolerance bands in ledger form (JSON-stable)."""
    return {
        m.name: {"tolerance": m.tolerance, "relative": m.relative}
        for m in spec.metrics
    }


def hybrid_tolerances(spec: FigureSpec) -> Dict[str, Dict[str, Any]]:
    """Hybrid-tier bands (docs/SIMULATION.md): only hybrid-defined
    metrics appear, each with its (usually wider) hybrid band."""
    return {
        m.name: {
            "tolerance": (
                m.hybrid_tolerance
                if m.hybrid_tolerance is not None
                else m.tolerance
            ),
            "relative": m.relative,
        }
        for m in spec.metrics
        if m.hybrid
    }
