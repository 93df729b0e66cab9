"""Unified telemetry: event bus, CC timelines, JSONL export.

``repro.obs`` is the observability substrate shared by the simulator,
the UDT protocol core, and the host cost models.  Design rules:

* **Zero-dependency, near-zero cost off.**  Every instrumentation point
  in hot code is guarded by ``bus.enabled`` (a plain attribute) so that
  with no subscriber attached the only cost is one attribute load and a
  branch — cheap enough to leave compiled in everywhere (Narses-style).
* **One process-wide default bus.**  Components constructed without an
  explicit bus fall back to :func:`default_bus`, so a CLI flag (or a
  test) can subscribe once and observe every connection, link and meter
  in the process without plumbing a bus through each constructor.
* **Typed, timestamped events.**  Event kinds are dotted strings
  (``cc.sample``, ``link.drop``, ...; see :mod:`repro.obs.bus`), each
  with a documented field set (docs/OBSERVABILITY.md).
* **Replayable.**  The qlog-inspired JSONL export round-trips: a
  :class:`TimelineRecorder` rebuilt from a trace file reproduces the
  in-memory per-connection timelines exactly.
"""

from repro.obs.bus import (
    CC_DECREASE,
    CC_DELAY_WARNING,
    CC_SAMPLE,
    CC_SLOWSTART_EXIT,
    CONN_CLOSED,
    CONN_CONNECTED,
    CPU_CHARGE,
    EXP_TIMEOUT,
    FLOW_DONE,
    LINK_DEQ,
    LINK_DROP,
    LINK_ENQ,
    PKT_RCV,
    PKT_SND,
    QUEUE_HIGHWATER,
    RCV_BUFFER_DROP,
    RCV_LOSS,
    SND_ACK,
    SND_NAK,
    Event,
    EventBus,
    Subscription,
    default_bus,
)
from repro.obs.export import (
    JsonlWriter,
    TraceSession,
    TraceSummary,
    TruncatedTraceWarning,
    read_events,
    trace_session,
)
from repro.obs.figspec import FigureSpec, MetricSpec, ResultTable, get_spec
from repro.obs.prof import SimProfiler, profile_simulators
from repro.obs.report import render_report, report_dict, summary_only_hint
from repro.obs.spans import PacketSpan, SpanBuilder, SpanSet, build_spans
from repro.obs.timeline import CcSample, TimelineRecorder

__all__ = [
    "Event",
    "EventBus",
    "Subscription",
    "default_bus",
    "CONN_CONNECTED",
    "CONN_CLOSED",
    "SND_ACK",
    "SND_NAK",
    "CC_SAMPLE",
    "CC_SLOWSTART_EXIT",
    "CC_DECREASE",
    "CC_DELAY_WARNING",
    "EXP_TIMEOUT",
    "RCV_LOSS",
    "RCV_BUFFER_DROP",
    "LINK_DROP",
    "LINK_ENQ",
    "LINK_DEQ",
    "PKT_SND",
    "PKT_RCV",
    "QUEUE_HIGHWATER",
    "CPU_CHARGE",
    "FLOW_DONE",
    "JsonlWriter",
    "TraceSession",
    "TraceSummary",
    "TruncatedTraceWarning",
    "read_events",
    "trace_session",
    "TimelineRecorder",
    "CcSample",
    "SimProfiler",
    "profile_simulators",
    "PacketSpan",
    "SpanBuilder",
    "SpanSet",
    "build_spans",
    "render_report",
    "report_dict",
    "summary_only_hint",
    "FigureSpec",
    "MetricSpec",
    "ResultTable",
    "get_spec",
]
