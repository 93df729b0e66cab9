"""Figure specs: how each experiment's result becomes a rendered figure.

The experiments emit :class:`~repro.experiments.common.ExperimentResult`
tables — the *data* behind the paper's figures.  A :class:`FigureSpec`
declares, per experiment id, how that table is drawn (which column is
the x axis, which columns are series, line vs bar, log scales).  That is
all this module knows: what is *asked* of a table — the paper's claims
and the drift bands — lives in :mod:`repro.obs.claims`.

Specs are declarative and renderer-agnostic: :mod:`repro.obs.svg`
turns (spec, table) into inline SVG, which ``python -m
repro.obs.figures --render`` writes out.  An experiment without a spec
has no figure; its rows are still gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple


class ResultTable:
    """Uniform wrapper over an ``ExperimentResult`` or its ``asdict`` form.

    Sweep cache entries and worker output files store results as plain
    dicts (``{"exp_id", "title", "columns", "rows", "notes", ...}``);
    in-process runs hand over the dataclass itself.  Specs and renderers
    only ever see this wrapper.
    """

    def __init__(self, data: Any):
        #: digest of the sweep entry the table was read from ("" in-process)
        self.digest = ""
        if isinstance(data, dict):
            self.exp_id = data.get("exp_id", "")
            self.title = data.get("title", "")
            self.columns: List[str] = list(data.get("columns", []))
            self.rows: List[Sequence[Any]] = [list(r) for r in data.get("rows", [])]
            self.notes = data.get("notes", "")
            self.paper_reference = data.get("paper_reference", "")
            self.scalars: Dict[str, float] = dict(data.get("scalars", {}))
        else:  # ExperimentResult (anything with the same attributes)
            self.exp_id = data.exp_id
            self.title = data.title
            self.columns = list(data.columns)
            self.rows = [list(r) for r in data.rows]
            self.notes = data.notes
            self.paper_reference = data.paper_reference
            self.scalars = dict(data.scalars)

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

    def cell(self, key: Any, name: str) -> Any:
        """Column ``name`` of the row whose first cell is ``key``."""
        idx = self.columns.index(name)
        for r in self.rows:
            if r[0] == key:
                return r[idx]
        raise KeyError(f"{self.exp_id}: no row {key!r}")

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class FigureSpec:
    """Declarative description of one paper figure's rendering."""

    fig_id: str
    x: str  #: column holding the x values
    series: Tuple[str, ...]  #: columns plotted as y series
    kind: str = "line"  #: "line" (numeric x) or "bar" (categorical x)
    x_log: bool = False
    y_label: str = ""


# -- the registry -----------------------------------------------------------

#: exp_id -> FigureSpec.  Experiments not listed here have no figure.
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
    )
)

_spec(
    FigureSpec(
        "fig03",
        x="flows",
        series=("stddev (Mb/s)",),
        y_label="per-flow stddev (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "fig04",
        x="RTT (ms)",
        series=("UDT", "TCP"),
        x_log=True,
        y_label="stability index (lower is better)",
    )
)

_spec(
    FigureSpec(
        "fig05",
        x="RTT (ms)",
        series=("T index",),
        x_log=True,
        y_label="TCP friendliness index",
    )
)

_spec(
    FigureSpec(
        "fig06",
        x="flow2 RTT (ms)",
        series=("ratio",),
        x_log=True,
        y_label="throughput ratio (var-RTT / 100 ms flow)",
    )
)

_spec(
    FigureSpec(
        "fig07",
        x="time (s)",
        series=("with FC", "without FC"),
        y_label="throughput (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "fig08",
        x="loss event #",
        series=("lost packets",),
        kind="bar",
        y_label="lost packets per event",
    )
)

_spec(
    FigureSpec(
        "fig09",
        x="structure",
        series=("insert mean", "query mean", "delete mean"),
        kind="bar",
        y_label="access time (µs)",
    )
)

_spec(
    FigureSpec(
        "fig11",
        x="path",
        series=("UDT", "TCP (tuned)"),
        kind="bar",
        y_label="throughput (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "fig12",
        x="destination",
        series=("UDT", "TCP"),
        kind="bar",
        y_label="throughput (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "fig13",
        x="UDT flows",
        series=("TCP aggregate (Mb/s)",),
        y_label="short-TCP aggregate (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "fig14",
        x="protocol",
        series=("sending CPU %", "receiving CPU %"),
        kind="bar",
        y_label="CPU utilisation (%)",
    )
)

_spec(
    FigureSpec(
        "fig15",
        x="MSS (bytes)",
        series=("throughput (Mb/s)",),
        y_label="throughput (Mb/s)",
    )
)

_spec(
    FigureSpec(
        "ablation-syn",
        x="SYN (ms)",
        series=("UDT alone Mb/s", "TCP share vs 1 UDT (Mb/s)"),
        x_log=True,
        y_label="throughput (Mb/s)",
    )
)


def get_spec(fig_id: str) -> Optional[FigureSpec]:
    return SPECS.get(fig_id)
