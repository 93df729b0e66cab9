"""Shared experiment plumbing: results, run arguments, formatting, tracing."""

from __future__ import annotations

import argparse
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.sim.engine import TIE_BREAKS
from repro.sim.topology import FIDELITIES

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


@dataclass(frozen=True)
class RunArgs:
    """What a run is besides its runner's keywords, passed to every runner.

    ``scale`` multiplies durations and sizes: the default reduced scale
    lets a full sweep finish in minutes of wall time on CPython, and
    ``scale=1`` runs every experiment at the paper's published durations
    (much slower).  Scaling shortens *time*, never link rates or RTTs, so
    the control dynamics stay in the paper's operating regime.
    ``fidelity`` and ``tie_break`` go to every network the runner builds
    (``**run_args.net``).
    """

    scale: float = 0.3
    fidelity: str = "packet"
    tie_break: str = "fifo"

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:  # false for nan too
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")
        for name, known in (("fidelity", FIDELITIES), ("tie_break", TIE_BREAKS)):
            if getattr(self, name) not in known:
                raise ValueError(
                    f"{name} must be one of {known}, got {getattr(self, name)!r}"
                )

    @property
    def net(self) -> Dict[str, str]:
        """The keywords of ``Network`` and every topology builder."""
        return {"fidelity": self.fidelity, "tie_break": self.tie_break}

    def scaled(self, seconds: float, minimum: float = 2.0) -> float:
        return max(seconds * self.scale, minimum)


def add_run_flags(parser: argparse.ArgumentParser, tie_break: bool = False) -> None:
    """The flags that set a :class:`RunArgs`, one per field, for every command."""
    parser.add_argument(
        "--scale", type=float, default=RunArgs.scale, metavar="S",
        help="duration scale (default 0.3; 1 is the paper's published durations)",
    )
    parser.add_argument(
        "--fidelity", choices=FIDELITIES, default=RunArgs.fidelity,
        help="simulation tier: 'packet' (every packet an event) or 'hybrid' "
        "(steady bulk-transfer stretches advanced analytically by the fluid "
        "tier; see docs/SIMULATION.md)",
    )
    if tie_break:
        parser.add_argument(
            "--tie-break", choices=TIE_BREAKS, default=RunArgs.tie_break,
            help="order of same-instant events ('lifo' is the determinism "
            "sanitizer's perturbation)",
        )


def parse_run_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> RunArgs:
    """The :class:`RunArgs` :func:`add_run_flags` parsed; a bad value exits 2."""
    tie_break = getattr(args, "tie_break", RunArgs.tie_break)  # only ``run`` sets it
    try:
        return RunArgs(args.scale, args.fidelity, tie_break)
    except ValueError as exc:
        parser.error(str(exc))


def mbps(bps: float) -> float:
    return bps / 1e6


@contextmanager
def traced(
    trace_path: Optional[str] = None,
    packets: bool = False,
    **meta: Any,
) -> Iterator[Any]:
    """Run any experiment fully traced.

    Subscribes a trace writer (when ``trace_path`` is given, an ``.rtrc``
    file) to the bus of each simulation run inside the block, which wakes
    up every instrumentation point — protocol cores, links, meters — for
    the duration of the block::

        with traced("out.rtrc") as session:
            result = get_experiment("fig04").runner()
        print(session.events_written)

    ``packets=True`` additionally records the per-packet detail tier
    (``pkt.snd``/``pkt.rcv``/``link.enq``/``link.deq``) so the trace can
    be span-reconstructed with ``repro-udt report`` /
    :func:`repro.obs.spans.build_spans`.

    Without a ``trace_path`` the block runs untraced (every bus stays
    disabled, so the instrumented paths keep their near-zero idle cost).
    Yields a :class:`~repro.obs.export.TraceSession`.
    """
    from repro.obs.export import trace_session

    with trace_session(trace_path, packets=packets, **meta) as session:
        yield session
