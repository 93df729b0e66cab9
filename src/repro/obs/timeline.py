"""Per-connection congestion-control timelines.

The protocol core emits a :data:`~repro.obs.bus.CC_SAMPLE` event after
every congestion-control update (ACK or NAK processing).  A
:class:`TimelineRecorder` subscribes to those samples plus the discrete
loss/timeout events and keeps one time series per connection, which is
exactly the data behind the paper's Figure 4/6/7-style plots: sending
rate, congestion window, flow window, RTT and bandwidth estimates over
time, annotated with loss and EXP events.

Timelines can be captured live (subscribe :meth:`TimelineRecorder.record`
to a run's bus, ``net.sim.bus``) or
rebuilt offline from a JSONL trace file via :meth:`TimelineRecorder.from_jsonl`
— the two forms are equivalent, which is what makes traced runs
re-plottable "from the trace alone".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.obs.bus import CC_SAMPLE, EXP_TIMEOUT, RCV_LOSS, SND_NAK


class CcSample(NamedTuple):
    """One congestion-control state snapshot."""

    t: float
    rate_bps: float
    cwnd: float
    flow_window: float
    rtt: float
    bw_est: float  # link-capacity estimate, packets/s
    loss_len: int  # sender loss-list length
    exp_count: int


#: Event kinds the recorder consumes.
TIMELINE_KINDS = (CC_SAMPLE, SND_NAK, RCV_LOSS, EXP_TIMEOUT)


class TimelineRecorder:
    """Collects per-connection CC samples and loss/timeout annotations."""

    def __init__(self, max_samples_per_conn: int = 1_000_000):
        self.max_samples_per_conn = max_samples_per_conn
        self.samples: Dict[str, List[CcSample]] = defaultdict(list)
        #: (t, kind, fields) marks per source: NAKs, detected holes, EXPs.
        self.marks: Dict[str, List[Tuple[float, str, dict]]] = defaultdict(list)

    # -- ingestion -------------------------------------------------------
    def record(self, kind: str, t: float, src: str, fields: Dict[str, Any]) -> None:
        """Bus subscriber entry point: ``bus.subscribe(rec.record,
        kinds=TIMELINE_KINDS)`` on a run's bus (``net.sim.bus``)."""
        if kind == CC_SAMPLE:
            series = self.samples[src]
            if len(series) < self.max_samples_per_conn:
                series.append(
                    CcSample(
                        t=t,
                        rate_bps=fields.get("rate_bps", 0.0),
                        cwnd=fields.get("cwnd", 0.0),
                        flow_window=fields.get("flow_window", 0.0),
                        rtt=fields.get("rtt", 0.0),
                        bw_est=fields.get("bw_est", 0.0),
                        loss_len=int(fields.get("loss_len", 0)),
                        exp_count=int(fields.get("exp_count", 0)),
                    )
                )
        else:
            self.marks[src].append((t, kind, dict(fields)))

    @classmethod
    def from_jsonl(cls, path: str) -> "TimelineRecorder":
        """Rebuild timelines from a trace file written by JsonlWriter."""
        from repro.obs.export import read_events

        rec = cls()
        for d in read_events(path, kinds=TIMELINE_KINDS):
            # each record is a fresh dict: what is left of it is the fields
            rec.record(d.pop("kind"), d.pop("t"), d.pop("src", ""), d)
        return rec

    # -- queries ---------------------------------------------------------
    def connections(self) -> List[str]:
        return sorted(self.samples)

    def series(self, conn: str) -> List[CcSample]:
        return self.samples.get(conn, [])

    def rates(self, conn: str) -> List[Tuple[float, float]]:
        """(t, sending rate bits/s) — the Figure 4/6 trajectory."""
        return [(s.t, s.rate_bps) for s in self.samples.get(conn, [])]

    def windows(self, conn: str) -> List[Tuple[float, float, float]]:
        """(t, cwnd, flow_window) — the Figure 7 window trajectories."""
        return [(s.t, s.cwnd, s.flow_window) for s in self.samples.get(conn, [])]

    def loss_times(self, conn: str) -> List[float]:
        return [t for t, kind, _ in self.marks.get(conn, []) if kind != EXP_TIMEOUT]

    def exp_times(self, conn: str) -> List[float]:
        return [t for t, kind, _ in self.marks.get(conn, []) if kind == EXP_TIMEOUT]

    def mean_rate_bps(self, conn: str, t0: float = 0.0) -> float:
        vals = [s.rate_bps for s in self.samples.get(conn, []) if s.t >= t0]
        return sum(vals) / len(vals) if vals else 0.0
