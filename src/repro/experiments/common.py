"""Shared experiment plumbing: results, scaling, formatting, tracing."""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

# flow_start lives in repro.sim.topology; benchmarks/perf/workloads.py
# imports it from here, so the name stays importable.
from repro.sim.topology import flow_start  # noqa: F401


@dataclass
class ExperimentResult:
    """One reproduced artefact: a table of rows mirroring the paper's plot."""

    exp_id: str
    title: str
    columns: Sequence[str]
    rows: List[Sequence[Any]] = field(default_factory=list)
    notes: str = ""
    paper_reference: str = ""
    #: named numbers that belong to the result but are no cell of the
    #: table (fig07's retransmission counts); kept by ``asdict``, so a
    #: cache entry carries them as data
    scalars: Dict[str, float] = field(default_factory=dict)

    def add(self, *row: Any) -> None:
        if len(row) != len(self.columns):
            raise ValueError(
                f"row has {len(row)} values, table has {len(self.columns)} columns"
            )
        self.rows.append(row)

    def column(self, name: str) -> List[Any]:
        idx = list(self.columns).index(name)
        return [r[idx] for r in self.rows]

    def to_text(self) -> str:
        widths = [
            max(len(str(c)), *(len(_fmt(r[i])) for r in self.rows)) if self.rows else len(str(c))
            for i, c in enumerate(self.columns)
        ]
        lines = [f"== {self.exp_id}: {self.title} =="]
        if self.paper_reference:
            lines.append(f"   (paper: {self.paper_reference})")
        header = "  ".join(str(c).ljust(w) for c, w in zip(self.columns, widths))
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            lines.append("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def print(self) -> None:  # noqa: A003 - mirrors the deliverable spec
        print(self.to_text())


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 100:
            return f"{v:.0f}"
        if abs(v) >= 1:
            return f"{v:.2f}"
        return f"{v:.4f}"
    return str(v)


def scale() -> float:
    """Global duration/size multiplier.

    Experiments run at the default reduced scale so a full sweep finishes
    in minutes of wall time on CPython; set ``REPRO_SCALE=1`` to run every
    experiment at the paper's published durations (much slower).  Scaling
    shortens *time*, never link rates or RTTs, so the control dynamics
    stay in the paper's operating regime.
    """
    return float(os.environ.get("REPRO_SCALE", "0.3"))


def scaled(seconds: float, minimum: float = 2.0) -> float:
    return max(seconds * scale(), minimum)


def mbps(bps: float) -> float:
    return bps / 1e6


@contextmanager
def traced(
    trace_path: Optional[str] = None,
    summary: bool = False,
    packets: bool = False,
    **meta: Any,
) -> Iterator[Any]:
    """Run any experiment fully traced.

    Subscribes a trace writer (when ``trace_path`` is given; the suffix
    selects JSONL or the ``.rtrc`` binary store) and/or a
    :class:`~repro.obs.export.TraceSummary` to the process default bus,
    which wakes up every instrumentation point in the stack —
    protocol cores, links, meters — for the duration of the block::

        with traced("out.jsonl", summary=True) as session:
            result = get_experiment("fig04").runner()
        print(session.summary_text())

    ``packets=True`` additionally records the per-packet detail tier
    (``pkt.snd``/``pkt.rcv``/``link.enq``/``link.deq``) so the trace can
    be span-reconstructed with ``repro-udt report`` /
    :func:`repro.obs.spans.build_spans`.

    With neither output requested the block runs untraced (the bus stays
    disabled, so the instrumented paths keep their near-zero idle cost).
    Yields a :class:`~repro.obs.export.TraceSession`.
    """
    from repro.obs.export import trace_session

    with trace_session(trace_path, summary=summary, packets=packets, **meta) as session:
        yield session
