"""Check recorded traces against the statically-extracted protocol model.

Where the lint tier checks *source*, this checks *behaviour*: every
``.rtrc`` trace the simulator writes must obey the event
ordering the endpoint's own guard structure promises
(:mod:`repro.analysis.protomodel`):

* ``requires_prior`` — a guarded kind (``pkt.snd``, ``snd.ack``, ...)
  must be preceded by ``conn.connected`` from the same ``src``;
* ``unique`` — ``conn.connected`` / ``conn.closed`` at most once per src;
* ``terminal`` — no model-kind event from a src after its ``conn.closed``.

A violation in a real trace means the trace pipeline, the sim adapter or
the endpoint itself broke an invariant the source *appears* to enforce —
exactly the class of bug neither unit tests (which assert on aggregates)
nor the lint tier (which never runs the code) can see.

Reading is routed through :func:`repro.obs.export.read_events` filtered
to the model's kinds, so the indexed store skips
whole blocks containing none of them (conn/cc/control kinds are a tiny
fraction of a packet-detail trace).  Each violation carries the few
preceding same-src model events as context, so the report reads like a
story — "closed at t=9.98, then pkt.snd at t=10.01" — instead of a bare
index.

Caveat: conformance assumes the trace was recorded without a sampling
policy that drops ``conn.*`` events; sampled traces can false-positive
on ``requires_prior`` (the connect record simply wasn't written).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from repro.analysis.protomodel import CLOSED_KIND, load_model

#: hard cap on reported violations — a systematically broken trace would
#: otherwise produce one violation per packet.
MAX_VIOLATIONS = 50

#: how many preceding same-src model events each violation carries.
CONTEXT_EVENTS = 4


def _fmt_event(rec: Dict[str, Any]) -> str:
    return f"t={rec.get('t', 0.0):.6f} {rec.get('kind')} src={rec.get('src')}"


@dataclass(frozen=True)
class Violation:
    """One ordering violation, anchored to its position in the stream."""

    index: int  # position within the model-kind event stream
    t: float
    src: str
    kind: str
    constraint: str  # requires_prior | unique | terminal
    message: str
    context: List[str] = field(default_factory=list, compare=False)

    def format(self) -> str:
        lines = [f"#{self.index} t={self.t:.6f} src={self.src}: {self.message}"]
        for c in self.context:
            lines.append(f"    after: {c}")
        return "\n".join(lines)


@dataclass
class ConformanceReport:
    trace: str
    events_checked: int = 0
    srcs: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    truncated: bool = False  # hit MAX_VIOLATIONS and stopped collecting

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        head = (
            f"conformance: {self.trace}: {self.events_checked} model "
            f"event(s), {len(self.srcs)} src(s), "
            f"{len(self.violations)} violation(s)"
        )
        if not self.violations:
            return head + " — OK"
        body = "\n".join(v.format() for v in self.violations)
        tail = "\n(further violations suppressed)" if self.truncated else ""
        return f"{head}\n{body}{tail}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "events_checked": self.events_checked,
            "srcs": self.srcs,
            "ok": self.ok,
            "truncated": self.truncated,
            "violations": [
                {
                    "index": v.index,
                    "t": v.t,
                    "src": v.src,
                    "kind": v.kind,
                    "constraint": v.constraint,
                    "message": v.message,
                    "context": v.context,
                }
                for v in self.violations
            ],
        }


class _SrcState:
    __slots__ = ("seen", "terminated", "recent")

    def __init__(self) -> None:
        self.seen: set = set()  # model kinds already seen for this src
        self.terminated = False
        self.recent: Deque[str] = deque(maxlen=CONTEXT_EVENTS)


def check_trace(
    trace_path: str,
    model: Optional[Dict[str, Any]] = None,
    model_path: Optional[Path] = None,
) -> ConformanceReport:
    """Validate one trace file against the protocol model."""
    if model is None:
        model = load_model(model_path)
    model_kinds = frozenset(model.get("kinds", {}))
    requires_prior: Dict[str, str] = {}
    unique = set()
    terminal = set()
    for c in model.get("constraints", ()):
        if c["type"] == "requires_prior":
            requires_prior[c["kind"]] = c["prior"]
        elif c["type"] == "unique":
            unique.add(c["kind"])
        elif c["type"] == "terminal":
            terminal.add(c["kind"])

    from repro.obs.export import read_events

    report = ConformanceReport(trace=str(trace_path))
    states: Dict[str, _SrcState] = {}
    for index, rec in enumerate(read_events(str(trace_path), kinds=model_kinds)):
        report.events_checked = index + 1
        src = str(rec.get("src", ""))
        kind = rec.get("kind")
        t = float(rec.get("t", 0.0))
        st = states.get(src)
        if st is None:
            st = states[src] = _SrcState()

        def violate(constraint: str, message: str) -> None:
            if len(report.violations) >= MAX_VIOLATIONS:
                report.truncated = True
                return
            report.violations.append(
                Violation(
                    index=index,
                    t=t,
                    src=src,
                    kind=kind,
                    constraint=constraint,
                    message=message,
                    context=list(st.recent),
                )
            )

        if st.terminated:
            violate(
                "terminal",
                f"{kind!r} after terminal {CLOSED_KIND!r} "
                "(endpoint kept emitting past close)",
            )
        if kind in unique and kind in st.seen:
            violate("unique", f"duplicate {kind!r} for this src")
        prior = requires_prior.get(kind)
        if prior is not None and prior not in st.seen:
            violate(
                "requires_prior",
                f"{kind!r} before {prior!r} (guarded emit fired on an "
                "unconnected endpoint)",
            )
        st.seen.add(kind)
        if kind in terminal:
            st.terminated = True
        st.recent.append(_fmt_event(rec))
    report.srcs = sorted(states)
    return report
