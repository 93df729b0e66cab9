"""Live sweep telemetry: worker heartbeats and the parent progress board.

A sweep at paper scale keeps workers busy for minutes; until now the
parent printed nothing between "running" and the final table.  This
module adds a side channel over the pipe the workers already have:

* **Worker side** — :class:`ProgressReporter` runs inside
  ``python -m repro.runner --worker ... --progress``.  It registers as a
  :class:`repro.sim.engine.RunObserver` (process-wide, so every
  simulator an experiment creates is covered) to learn the
  currently-running simulator and its ``until`` horizon, and a daemon
  thread emits one JSON heartbeat per interval on stdout — the worker's
  stdout is otherwise unused, so the protocol needs no new file
  descriptors.  The live event count is the simulator's own
  ``events_processed``, which the dispatch loop writes per event; the
  thread reads it and ``now`` on the live simulator and nothing else,
  stores nothing and calls nothing — the lock-free bargain the engine
  makes with this reader, pinned by a stand-in simulator that raises on
  anything else (tests/test_runner_progress.py, docs/ANALYSIS.md).

* **Parent side** — :class:`ProgressBoard` collects heartbeats (and
  start/done/failed lifecycle records) from all workers, renders
  per-worker status lines (vtime frontier, events/s, ETA), and appends
  every record to ``progress.jsonl`` — which the HTML dashboard renders
  as a live-run card.

Heartbeat record::

    {"kind": "sweep.heartbeat", "exp": "fig08", "wall": 12.5,
     "vt": 2.31, "vt_end": 5.0, "events": 1273450, "eps": 405120,
     "eta": 13.2}

``vt``/``vt_end`` are virtual seconds; ``eta`` extrapolates the
remaining virtual time at the recent virtual-time rate.  ``eps`` is
engine events per wall second over the last interval.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from math import inf
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TextIO

from repro.sim.engine import RunObserver, add_run_observer, remove_run_observer

HEARTBEAT = "sweep.heartbeat"

Emit = Callable[[str], None]


def default_progress_path(cache_dir: Optional[Path] = None) -> Path:
    """Where ``sweep --progress`` writes its feed: ``<cache>/progress.jsonl``."""
    from repro.runner.cache import default_cache_dir

    base = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return base / "progress.jsonl"


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


class ProgressReporter(RunObserver):
    """Emits periodic heartbeat JSON lines for the experiment running here."""

    def __init__(
        self,
        exp_id: str,
        interval: float = 0.5,
        out: Optional[TextIO] = None,
    ):
        self.exp_id = exp_id
        self.interval = interval
        self._out = out if out is not None else sys.stdout
        self._lock = threading.Lock()
        self._cur_sim: Optional[Any] = None
        self._cur_until: Optional[float] = None
        self._cur_base = 0
        self._events_done = 0
        self._t0 = time.perf_counter()
        self._last: Optional[tuple] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- engine seam -----------------------------------------------------
    def start(self) -> "ProgressReporter":
        if self._thread is not None:
            raise RuntimeError("reporter already started")
        add_run_observer(self)
        self._thread = threading.Thread(
            target=self._loop, name="progress-reporter", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        remove_run_observer(self)

    def __enter__(self) -> "ProgressReporter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def run_begin(self, sim: Any, until: Optional[float]) -> None:
        with self._lock:
            self._cur_sim = sim
            self._cur_until = until
            self._cur_base = sim.events_processed

    def run_end(self, sim: Any, until: Optional[float]) -> None:
        with self._lock:
            self._events_done += sim.events_processed - self._cur_base
            self._cur_sim = None
            self._cur_until = None

    # -- sampling --------------------------------------------------------
    def sample(self) -> Dict[str, Any]:
        """One heartbeat record from the current engine state."""
        wall = time.perf_counter() - self._t0
        with self._lock:
            sim = self._cur_sim
            until = self._cur_until
            events = self._events_done
            base = self._cur_base
        vt: Optional[float] = None
        if sim is not None:
            vt = sim.now
            events += sim.events_processed - base
        rec: Dict[str, Any] = {
            "kind": HEARTBEAT,
            "exp": self.exp_id,
            "wall": round(wall, 3),
            "events": events,
        }
        if vt is not None:
            rec["vt"] = round(vt, 6)
        if until is not None and until != inf:
            rec["vt_end"] = round(until, 6)
        if self._last is not None:
            last_wall, last_vt, last_events = self._last
            dw = wall - last_wall
            if dw > 0:
                rec["eps"] = int((events - last_events) / dw)
                if vt is not None and last_vt is not None and vt >= last_vt:
                    vrate = (vt - last_vt) / dw
                    if until is not None and until != inf and vrate > 1e-12:
                        rec["eta"] = round((until - vt) / vrate, 1)
        self._last = (wall, vt, events)
        return rec

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            rec = self.sample()
            try:
                self._out.write(json.dumps(rec, separators=(",", ":")) + "\n")
                self._out.flush()
            except (ValueError, OSError):
                return  # pipe gone: parent died, stop quietly


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------


def _fmt_count(n: float) -> str:
    if n >= 1e6:
        return f"{n/1e6:.1f}M"
    if n >= 1e3:
        return f"{n/1e3:.0f}k"
    return f"{n:.0f}"


class ProgressBoard:
    """Thread-safe sink for worker lifecycle + heartbeat records.

    Appends every record (stamped with a wall-clock ``ts``) to
    ``progress.jsonl`` and, when ``emit`` is given, renders per-worker
    status lines, rate-limited per experiment so a many-worker sweep
    stays readable.  The file is truncated at ``sweep_begin`` — it
    describes the *current* (or most recent) sweep, which is exactly
    what the dashboard's live-run card wants.
    """

    def __init__(
        self,
        path: Optional[Path] = None,
        emit: Optional[Emit] = None,
        line_interval: float = 2.0,
    ):
        self.path = Path(path) if path is not None else None
        self._emit = emit
        self.line_interval = line_interval
        self._lock = threading.Lock()
        self._last_line: Dict[str, float] = {}
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text("")

    def _record(self, rec: Dict[str, Any]) -> None:
        rec = dict(rec)
        rec["ts"] = round(time.time(), 3)
        with self._lock:
            if self.path is not None:
                with open(self.path, "a", encoding="utf-8") as f:
                    f.write(json.dumps(rec, separators=(",", ":")) + "\n")

    def _say(self, line: str) -> None:
        if self._emit is not None:
            self._emit(line)

    # -- lifecycle -------------------------------------------------------
    def sweep_begin(
        self,
        selector: str,
        scale: float,
        jobs: int,
        pending: List[str],
        cached: List[str],
    ) -> None:
        self._record(
            {
                "kind": "sweep.begin",
                "selector": selector,
                "scale": scale,
                "jobs": jobs,
                "pending": list(pending),
                "cached": list(cached),
            }
        )

    def worker_start(self, exp_id: str) -> None:
        self._record({"kind": "sweep.worker_start", "exp": exp_id})

    def heartbeat(self, exp_id: str, rec: Dict[str, Any]) -> None:
        self._record(rec)
        now = time.monotonic()
        with self._lock:
            last = self._last_line.get(exp_id, 0.0)
            if now - last < self.line_interval:
                return
            self._last_line[exp_id] = now
        self._say(self.format_line(exp_id, rec))

    def worker_done(self, exp_id: str, seconds: float) -> None:
        self._record(
            {"kind": "sweep.worker_done", "exp": exp_id, "seconds": round(seconds, 3)}
        )

    def worker_failed(self, exp_id: str, error: str) -> None:
        self._record({"kind": "sweep.worker_failed", "exp": exp_id, "error": error})

    def sweep_end(self, seconds: float, executed: int, failed: int) -> None:
        self._record(
            {
                "kind": "sweep.end",
                "seconds": round(seconds, 3),
                "executed": executed,
                "failed": failed,
            }
        )

    # -- rendering -------------------------------------------------------
    @staticmethod
    def format_line(exp_id: str, rec: Dict[str, Any]) -> str:
        """One human status line from a heartbeat record."""
        parts = [f"[progress] {exp_id:<26}"]
        vt, vt_end = rec.get("vt"), rec.get("vt_end")
        if vt is not None and vt_end:
            pct = min(100.0, 100.0 * vt / vt_end) if vt_end > 0 else 0.0
            parts.append(f"vt {vt:7.3f}/{vt_end:.3f}s ({pct:3.0f}%)")
        elif vt is not None:
            parts.append(f"vt {vt:7.3f}s")
        if rec.get("eps") is not None:
            parts.append(f"{_fmt_count(rec['eps'])} ev/s")
        if rec.get("events") is not None:
            parts.append(f"{_fmt_count(rec['events'])} events")
        if rec.get("eta") is not None:
            parts.append(f"eta {rec['eta']:.0f}s")
        parts.append(f"wall {rec.get('wall', 0.0):.1f}s")
        return "  ".join(parts)


def read_progress(path: Path) -> Optional[Dict[str, Any]]:
    """Fold a ``progress.jsonl`` feed into the dashboard's live-run view.

    Returns ``None`` when the file is missing/empty, else::

        {"begin": {...}, "end": {...} | None, "workers":
            {exp: {"status": "running|done|failed",
                   "last": <latest heartbeat or lifecycle rec>,
                   "seconds": ..., "error": ...}},
         "ts": <latest record ts>}
    """
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (FileNotFoundError, OSError):
        return None
    begin: Optional[Dict[str, Any]] = None
    end: Optional[Dict[str, Any]] = None
    workers: Dict[str, Dict[str, Any]] = {}
    latest_ts: Optional[float] = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except ValueError:
            continue  # mid-write truncation: the feed is live by design
        if not isinstance(rec, dict):
            continue
        ts = rec.get("ts")
        if isinstance(ts, (int, float)):
            latest_ts = ts if latest_ts is None else max(latest_ts, ts)
        kind = rec.get("kind")
        exp = rec.get("exp")
        if kind == "sweep.begin":
            begin = rec
        elif kind == "sweep.end":
            end = rec
        elif exp:
            w = workers.setdefault(exp, {"status": "running"})
            if kind == "sweep.worker_done":
                w["status"] = "done"
                w["seconds"] = rec.get("seconds")
            elif kind == "sweep.worker_failed":
                w["status"] = "failed"
                w["error"] = rec.get("error")
            elif kind == HEARTBEAT:
                w["last"] = rec
    if begin is None and not workers:
        return None
    return {"begin": begin, "end": end, "workers": workers, "ts": latest_ts}
