"""One screen on one run (``repro-udt explain EXP``).

The paper explains its transport by accounting for where the time goes
(Table 3).  ``explain`` gives one run of this reproduction the same
accounting, read from the sources the run already has:

1. wall seconds;
2. whether the sweep cache holds this run's result, or why it misses
   (:func:`cache_status`, :func:`miss_cause`);
3. wall time by layer (:class:`~repro.obs.prof.SimProfiler`);
4. events by kind, trace bytes and bytes per event
   (:meth:`~repro.obs.store.RtrcReader.stats`);
5. fidelity-tier residency (``fluid.enter``/``fluid.exit``);
6. the last CC state per connection
   (:meth:`~repro.obs.timeline.TimelineRecorder.from_trace`);
7. this experiment's recent runtimes at this scale
   (``BENCH_runtime.json`` ``history``).

Nothing here runs an experiment: ``repro.cli`` runs it under a profiler
and a temporary trace and hands both here.  The cache and the runtime
ledger are only read.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

from repro.obs.bus import FLUID_EXIT
from repro.runner.cache import ResultCache, read_json_object

#: How many of the newest same-scale runtimes the screen lists.
HISTORY_SHOWN = 5


def miss_cause(entry: Dict[str, Any], files: Dict[str, str], overrides: Dict[str, Any]) -> str:
    """Why ``entry``, the newest cached run of the same experiment, scale
    and fidelity, is not this run's: the source files changed, added or
    removed since it was stored, and this run's overrides (a sweep entry
    has none)."""
    old = entry.get("files")
    if old is None:
        return "cause unknown (entry predates the files map)"
    causes = [
        f"{what} {', '.join(names)}"
        for what, names in (
            ("changed", sorted(f for f in files.keys() & old.keys() if files[f] != old[f])),
            ("added", sorted(files.keys() - old.keys())),
            ("removed", sorted(old.keys() - files.keys())),
        )
        if names
    ]
    if overrides:
        causes.append(
            "overrides " + ", ".join(f"{k}={v!r}" for k, v in sorted(overrides.items()))
        )
    return "; ".join(causes) or "no file or override differs (the digest schema changed)"


def cache_status(exp_id: str, run_args: Any, overrides: Dict[str, Any]) -> str:
    """``hit (<digest>)`` when the sweep cache (``$REPRO_CACHE_DIR`` or
    ``.repro-cache``) holds this run's result, else ``miss (<digest>):
    <cause>``."""
    from repro.runner.digest import experiment_digest

    digest, files = experiment_digest(
        exp_id, run_args.scale, overrides=overrides, fidelity=run_args.fidelity
    )
    cache = ResultCache()
    if cache.load(digest) is not None:
        return f"hit ({digest[:12]} in {cache.root})"
    prev = cache.newest(exp_id, run_args.scale, run_args.fidelity)
    if prev is None:
        return (
            f"miss ({digest[:12]}): no {run_args.fidelity} entry of {exp_id} "
            f"at scale={run_args.scale:g} in {cache.root}"
        )
    return f"miss ({digest[:12]}): {miss_cause(prev, files, overrides)}"


def _events(trace: Path) -> List[str]:
    from repro.obs.store import RtrcReader

    with RtrcReader(trace) as reader:
        stats = reader.stats()
    size = trace.stat().st_size
    per_event = size / stats["events"] if stats["events"] else 0.0
    lines = [
        f"{stats['events']} events in {stats['blocks']} block(s), "
        f"{size} bytes ({per_event:.2f} B/event)"
    ]
    lines += [f"  {kind:<20s} {n}" for kind, n in stats["kinds"].items()]
    return lines


def _residency(trace: Path, run_args: Any, virtual_seconds: float) -> List[str]:
    from repro.obs.export import read_events

    spans = list(read_events(trace, kinds=[FLUID_EXIT]))
    if not spans:
        return [f"packet tier throughout ({virtual_seconds:.3f}s virtual, "
                f"fidelity={run_args.fidelity})"]
    fluid = sum(ev["span"] for ev in spans)
    share = fluid / virtual_seconds if virtual_seconds > 0 else 0.0
    return [
        f"fluid {fluid:.3f}s of {virtual_seconds:.3f}s virtual ({share:.1%}) "
        f"in {len(spans)} span(s); packet the rest"
    ]


def _last_cc(trace: Path) -> List[str]:
    from repro.obs.timeline import TimelineRecorder

    rec = TimelineRecorder.from_trace(str(trace))
    lines = []
    for conn in rec.connections():
        s = rec.series(conn)[-1]
        lines.append(
            f"  {conn}: t={s.t:.3f}s rate={s.rate_bps / 1e6:.2f} Mb/s "
            f"cwnd={s.cwnd:.1f} rtt={s.rtt * 1e3:.2f} ms "
            f"bw_est={s.bw_est:.0f} pkt/s loss_len={s.loss_len}"
        )
    return lines or ["  no cc.sample in the trace"]


def _history(exp_id: str, run_args: Any, bench_path: Path) -> List[str]:
    from repro.runner.sweep import history_key

    runs = read_json_object(bench_path).get("history", {})
    same = [
        h for h in runs.get(history_key(exp_id, run_args.fidelity), [])
        if h.get("scale") == run_args.scale
    ][-HISTORY_SHOWN:]
    lines = [
        f"  {h.get('ts', '?')}  {h.get('sha', '?'):<9} {h['seconds']:8.1f}s" for h in same
    ]
    return lines or [f"  none at scale={run_args.scale:g} in {bench_path}"]


def render_explain(
    exp_id: str,
    run_args: Any,
    wall: float,
    cache: str,
    prof: Any,
    trace: Path,
) -> str:
    """The screen: ``cache`` is :func:`cache_status`'s line, ``prof`` the
    run's :class:`~repro.obs.prof.SimProfiler` and ``trace`` its ``.rtrc``."""
    from repro.runner.sweep import DEFAULT_BENCH

    lines = [
        f"== explain {exp_id}: scale={run_args.scale:g} "
        f"fidelity={run_args.fidelity} tie-break={run_args.tie_break} ==",
        f"wall   {wall:.2f}s",
        f"cache  {cache}",
        "-- wall time by layer --",
        prof.to_text(),
        "-- events by kind --",
        *_events(trace),
        "-- fidelity tiers --",
        *_residency(trace, run_args, prof.virtual_seconds),
        "-- last CC state per connection --",
        *_last_cc(trace),
        f"-- recent runtimes ({DEFAULT_BENCH.name} history) --",
        *_history(exp_id, run_args, DEFAULT_BENCH),
    ]
    return "\n".join(lines)
