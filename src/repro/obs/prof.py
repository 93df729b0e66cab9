"""Simulator hot-path profiler.

Attributes wall-clock time and event counts to *layers* — the module
that defines each handler (``sim.link``, ``udt.core``, ``apps.bulk``) —
by timing every event the discrete-event engine dispatches.  The paper's
figures take tens of seconds of wall time each to reproduce; this module
answers "where do those seconds go" on ``repro-udt explain``'s screen.

Design:

* **One test per event when off.**  The engine has a single dispatch
  loop; the profiler registers as a :class:`repro.sim.engine.RunObserver`
  and hands each ``run()`` its accumulator, which switches that run to
  the loop's timed branch.  Nothing is patched, so other observers (a
  sweep worker's heartbeat reporter) may be active at the same time and
  leave in either order.
* **Layer attribution is lazy.**  The engine accumulates per-function
  ``[count, seconds]`` pairs keyed by the raw function object (one
  ``getattr`` per event); mapping functions to layers happens once, at
  report time (:func:`categorize`).
* **Experiments construct their own simulators**, so registration is
  process-wide for the length of one block
  (:meth:`SimProfiler.activate`): every ``Simulator`` run inside it
  feeds the same accumulator.

Usage::

    from repro.obs.prof import SimProfiler

    prof = SimProfiler()
    with prof.activate():
        get_experiment("fig02").runner()
    print(prof.to_text())
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.sim.engine import (
    RunObserver,
    Simulator,
    add_run_observer,
    remove_run_observer,
    run_observers,
)


def categorize(fn: Callable) -> str:
    """The layer a scheduled handler is filed under: the module that
    defines it, without ``repro.``, and ``runner`` for every
    ``repro.runner*`` module (``udt.core``, ``sim.link``, ...).  This is
    how ``benchmarks/perf``'s tracer files its spans.  A ``partial`` (a
    host's port slot) is filed under what it calls."""
    while isinstance(fn, partial):
        fn = fn.func
    mod = getattr(fn, "__module__", None) or "?"
    if mod.startswith("repro.runner"):
        return "runner"
    return mod.removeprefix("repro.")


class SimProfiler(RunObserver):
    """Accumulates per-category event counts and handler seconds.

    One profiler may span many simulators and many ``run`` segments;
    everything lands in the same accumulator.
    """

    def __init__(self) -> None:
        self._acc: Dict[Any, List] = {}  # fn -> [count, seconds]
        self.wall_seconds = 0.0  # total wall time inside run()
        self.virtual_seconds = 0.0  # total simulated time those runs covered
        self.runs = 0
        self._run_t0 = 0.0
        self._run_vt0 = 0.0

    # -- registration ----------------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["SimProfiler"]:
        """Profile every simulator run inside the block; the results are
        kept after it.  One profiler at a time: a second ``activate``
        while one is registered (this one included) raises
        ``RuntimeError``."""
        if any(isinstance(ob, SimProfiler) for ob in run_observers()):
            raise RuntimeError("a SimProfiler is already active")
        add_run_observer(self)
        try:
            yield self
        finally:
            remove_run_observer(self)

    # -- the engine seam -------------------------------------------------
    def run_begin(self, sim: Simulator, until: Optional[float]) -> Dict[Any, List]:
        self.runs += 1
        self._run_vt0 = sim.now
        self._run_t0 = perf_counter()
        return self._acc

    def run_end(self, sim: Simulator, until: Optional[float]) -> None:
        self.wall_seconds += perf_counter() - self._run_t0
        self.virtual_seconds += sim.now - self._run_vt0

    # -- results ---------------------------------------------------------
    @property
    def events_total(self) -> int:
        return sum(ent[0] for ent in self._acc.values())

    @property
    def handler_seconds(self) -> float:
        return sum(ent[1] for ent in self._acc.values())

    def categories(self) -> List[Dict[str, Any]]:
        """Merged per-category rows, hottest first.

        Row keys: ``category``, ``events``, ``seconds``, ``share`` (of
        total handler seconds).
        """
        merged: Dict[str, List] = {}
        for fn, (count, seconds) in self._acc.items():
            cat = categorize(fn)
            ent = merged.get(cat)
            if ent is None:
                merged[cat] = [count, seconds]
            else:
                ent[0] += count
                ent[1] += seconds
        total = sum(e[1] for e in merged.values()) or 1.0
        rows = [
            {
                "category": cat,
                "events": count,
                "seconds": seconds,
                "share": seconds / total,
            }
            for cat, (count, seconds) in merged.items()
        ]
        rows.sort(key=lambda r: (-r["seconds"], r["category"]))
        return rows

    def to_text(self, top_n: int = 10) -> str:
        """The layer table ``repro-udt explain`` prints: the ``top_n``
        hottest layers and a count of the rest."""
        cats = self.categories()
        rows = cats[:top_n]
        lines = [
            "== simulator profile ==",
            f"{self.events_total} events, {self.handler_seconds:.3f}s in handlers "
            f"({self.wall_seconds:.3f}s wall, {self.runs} run segment(s))",
            f"{'category':<24s} {'events':>10s} {'seconds':>9s} {'share':>7s}",
        ]
        for r in rows:
            lines.append(
                f"{r['category']:<24s} {r['events']:>10d} "
                f"{r['seconds']:>9.3f} {r['share']:>6.1%}"
            )
        omitted = len(cats) - len(rows)
        if omitted > 0:
            lines.append(f"... {omitted} cooler categories omitted (top {top_n})")
        return "\n".join(lines)
