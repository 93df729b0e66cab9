"""The sweep orchestrator behind ``repro-udt sweep``.

The parent process computes each experiment's digest, answers what it can
from the :class:`~repro.runner.cache.ResultCache`, and fans the misses
out to worker subprocesses (``python -m repro.runner --worker``), at most
``--jobs`` in flight at once.  Subprocesses are the sweep's parallelism
and its crash isolation: a crash in one experiment cannot poison
another.  Determinism does not depend on them — every id and the RNG
belong to the run's own ``Simulator``/``Network`` — so results and traces
are byte-identical whatever ``--jobs`` is.

After the run the sweep merge-updates ``benchmarks/results/
BENCH_runtime.json``: the sweep goes under ``sweeps[<key>]`` with its
digest map, cache-hit count and per-experiment seconds (what
:func:`check_regressions`, the CI runtime-regression gate, compares
between two such files — docs/PERFORMANCE.md), and every *executed*
experiment appends one ``history[<exp>]`` entry with its scale (the
recent runtimes ``repro-udt explain`` lists) — preserving every other key
the file holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import RunArgs
from repro.runner.cache import ResultCache, read_json_object, write_json_atomic
from repro.runner.digest import experiment_digest

#: Default location of the merged runtime ledger, relative to the cwd.
DEFAULT_BENCH = Path("benchmarks/results/BENCH_runtime.json")

Emit = Callable[[str], None]


@dataclass
class SweepReport:
    """What one sweep did: who ran, who hit cache, how long it all took."""

    selector: str
    scale: float
    jobs: int
    experiments: List[str]
    fidelity: str = "packet"
    seconds: float = 0.0
    cached: List[str] = field(default_factory=list)
    executed: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    exp_seconds: Dict[str, float] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)
    corrupt_dropped: int = 0

    @property
    def key(self) -> str:
        """The entry name this sweep writes under ``sweeps``.

        Packet-mode keys keep the historical ``selector|scale|jobs``
        shape (CI gate baselines reference them); hybrid sweeps get an
        explicit ``|fidelity=hybrid`` suffix so the two can never be
        compared against each other by accident.  The scale is a ``:g``
        label, six significant digits, because committed
        ``BENCH_runtime.json`` keys such as ``scale=1`` name it that way;
        the run and its cache key carry the exact value (``repr``).
        """
        base = f"{self.selector}|scale={self.scale:g}|jobs={self.jobs}"
        if self.fidelity != "packet":
            base += f"|fidelity={self.fidelity}"
        return base

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [
            f"== sweep {self.key}: {len(self.experiments)} experiments, "
            f"{len(self.cached)} cached, {len(self.executed)} executed, "
            f"{len(self.failures)} failed in {self.seconds:.1f}s =="
        ]
        for exp_id in self.experiments:
            if exp_id in self.failures:
                status = "FAILED"
            elif exp_id in self.cached:
                status = "cached"
            else:
                status = "ran"
            sec = self.exp_seconds.get(exp_id)
            timing = f"{sec:8.1f}s" if sec is not None else "        -"
            lines.append(f"  {exp_id:<26} {timing}  {status}")
        if self.corrupt_dropped:
            lines.append(f"  [dropped {self.corrupt_dropped} corrupt cache entries]")
        return "\n".join(lines)


def select_experiments(only: Optional[Sequence[str]]) -> Tuple[str, List[str]]:
    """Resolve an ``--only`` list to (selector label, registry ids)."""
    from repro.experiments import get_experiment, list_experiments

    if not only:
        return "all", [e.exp_id for e in list_experiments()]
    ids = []
    for exp_id in only:
        get_experiment(exp_id)  # raises KeyError with the known ids
        if exp_id not in ids:
            ids.append(exp_id)
    return ",".join(ids), ids


def _worker_cmd(
    exp_id: str,
    digest: str,
    run_args: RunArgs,
    out_path: Path,
    trace_path: Optional[Path],
    trace_packets: bool,
    progress: bool = False,
) -> List[str]:
    cmd = [
        sys.executable,
        "-m",
        "repro.runner",
        "--worker",
        exp_id,
        "--scale",
        repr(run_args.scale),
        "--fidelity",
        run_args.fidelity,
        "--digest",
        digest,
        "--out",
        str(out_path),
    ]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
        if trace_packets:
            cmd.append("--trace-packets")
    if progress:
        cmd.append("--progress")
    return cmd


def worker_env() -> Dict[str, str]:
    """This environment, with the ``repro`` package this process runs first
    on the path of a child interpreter (a sweep worker, a sanitizer run)."""
    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_dir if not existing else src_dir + os.pathsep + existing
    )
    return env


def _run_worker(
    exp_id: str,
    digest: str,
    run_args: RunArgs,
    tmp_dir: Path,
    trace_dir: Optional[Path],
    trace_packets: bool,
    board: Optional[Any] = None,
) -> Dict[str, Any]:
    """Execute one experiment in a fresh interpreter; returns its entry.

    With a :class:`~repro.runner.progress.ProgressBoard` the worker runs
    with ``--progress`` and its stdout heartbeat lines stream into the
    board as they arrive.  Worker stderr spools to a file (not a pipe)
    so a chatty crash can never deadlock against the stdout reader.
    """
    out_path = tmp_dir / f"{exp_id}.json"
    trace_path = trace_dir / f"{exp_id}.rtrc" if trace_dir is not None else None
    cmd = _worker_cmd(
        exp_id, digest, run_args, out_path, trace_path, trace_packets,
        progress=board is not None,
    )
    if board is not None:
        board.worker_start(exp_id)
    stderr_path = tmp_dir / f"{exp_id}.stderr"
    with open(stderr_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(
            cmd,
            env=worker_env(),
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
        assert proc.stdout is not None
        for line in proc.stdout:
            line = line.strip()
            if not line or board is None:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and rec.get("kind") == "sweep.heartbeat":
                board.heartbeat(exp_id, rec)
        proc.wait()
    if proc.returncode != 0:
        try:
            stderr_text = stderr_path.read_text(encoding="utf-8")
        except OSError:
            stderr_text = ""
        tail = "\n".join(stderr_text.strip().splitlines()[-8:])
        raise RuntimeError(
            f"worker for {exp_id} exited {proc.returncode}:\n{tail}"
        )
    with open(out_path, "r", encoding="utf-8") as f:
        return json.load(f)


def run_sweep(
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
    scale: float = RunArgs.scale,
    cache_dir: Optional[Path] = None,
    force: bool = False,
    trace_dir: Optional[Path] = None,
    trace_packets: bool = False,
    progress: bool = False,
    fidelity: str = RunArgs.fidelity,
    emit: Optional[Emit] = None,
) -> SweepReport:
    """Run (or cache-skip) every selected experiment; returns the report.

    ``trace_dir`` asks each worker to write ``<exp_id>.rtrc`` there; a
    trace run always executes (a cache hit has no trace to hand back),
    which is what makes ``--jobs 1`` vs ``--jobs N`` trace comparisons
    meaningful.  ``force`` ignores cache hits but still stores results.

    ``progress`` streams worker heartbeats into per-experiment status
    lines and appends every record to ``<cache>/progress.jsonl``
    (docs/OBSERVABILITY.md).

    Each stored entry carries, beside the worker's result, its fidelity
    and the ``files`` map its digest hashed, so a later miss can name the
    files that changed (:func:`repro.obs.explain.miss_cause`).

    ``scale`` and ``fidelity`` (``"packet"`` or ``"hybrid"``;
    docs/SIMULATION.md) are every worker's :class:`RunArgs`.  Both are
    part of every experiment digest, so hybrid and packet runs can never
    alias in the result cache; a fidelity other than packet suffixes the
    sweep's ledger key.  A bad value raises ``ValueError``.
    """
    run_args = RunArgs(scale, fidelity)
    say: Emit = emit if emit is not None else (lambda s: None)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    selector, ids = select_experiments(only)
    cache = ResultCache(cache_dir)
    report = SweepReport(
        selector=selector,
        scale=scale,
        jobs=jobs,
        experiments=ids,
        fidelity=fidelity,
    )

    board = None
    if progress:
        from repro.runner.progress import ProgressBoard, default_progress_path

        board = ProgressBoard(path=default_progress_path(cache_dir), emit=say)

    t0 = time.perf_counter()
    pending: List[str] = []
    files: Dict[str, Dict[str, str]] = {}
    for exp_id in ids:
        digest, files[exp_id] = experiment_digest(exp_id, scale, fidelity=fidelity)
        report.digests[exp_id] = digest
        entry = None if (force or trace_dir is not None) else cache.load(digest)
        if entry is not None:
            report.cached.append(exp_id)
            sec = entry.get("seconds")
            if isinstance(sec, (int, float)):
                report.exp_seconds[exp_id] = float(sec)
            say(f"[sweep] {exp_id}: cache hit ({digest[:12]})")
        else:
            pending.append(exp_id)

    if board is not None:
        board.sweep_begin(
            selector, scale, jobs, pending=pending, cached=report.cached
        )
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        tmp_dir = Path(tmp)
        if pending:
            say(
                f"[sweep] running {len(pending)} experiment(s) at "
                f"scale={scale:g} with jobs={jobs}"
            )
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(
                    _run_worker,
                    exp_id,
                    report.digests[exp_id],
                    run_args,
                    tmp_dir,
                    trace_dir,
                    trace_packets,
                    board,
                ): exp_id
                for exp_id in pending
            }
            for fut in as_completed(futures):
                exp_id = futures[fut]
                try:
                    entry = fut.result()
                except Exception as exc:  # worker crash: report, keep going
                    report.failures[exp_id] = str(exc)
                    if board is not None:
                        board.worker_failed(exp_id, str(exc))
                    say(f"[sweep] {exp_id}: FAILED ({exc})")
                    continue
                report.executed.append(exp_id)
                sec = float(entry.get("seconds", 0.0))
                report.exp_seconds[exp_id] = sec
                cache.store(
                    report.digests[exp_id],
                    dict(entry, fidelity=fidelity, files=files[exp_id]),
                )
                if board is not None:
                    board.worker_done(exp_id, sec)
                say(f"[sweep] {exp_id}: ran in {sec:.1f}s")
    # registry order, not completion order
    report.executed.sort(key=ids.index)
    report.seconds = time.perf_counter() - t0
    report.corrupt_dropped = cache.corrupt_dropped
    if board is not None:
        board.sweep_end(
            report.seconds, len(report.executed), len(report.failures)
        )
    return report


# -- BENCH_runtime.json merge + regression gate -------------------------

#: How many history entries each experiment keeps (oldest dropped first).
HISTORY_LIMIT = 40


def git_sha() -> str:
    """Short SHA of HEAD, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def append_history(
    data: Dict[str, Any],
    exp_id: str,
    seconds: float,
    scale: Optional[float] = None,
    source: str = "sweep",
    sha: Optional[str] = None,
    limit: int = HISTORY_LIMIT,
) -> None:
    """Append one measured run to ``data["history"][exp_id]``, bounded.

    ``repro-udt explain`` lists the entries at its run's scale as the
    experiment's recent runtimes.  The regression gate reads none of it —
    it compares ``sweeps[<key>].per_experiment``.  Entries are
    append-only up to ``limit``, then the oldest fall off.
    """
    entry: Dict[str, Any] = {
        "ts": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "sha": sha if sha is not None else git_sha(),
        "seconds": round(seconds, 3),
        "source": source,
    }
    if scale is not None:
        entry["scale"] = scale
    history = data.setdefault("history", {})
    runs = history.setdefault(exp_id, [])
    runs.append(entry)
    del runs[:-limit]


def history_key(exp_id: str, fidelity: str) -> str:
    """The ``history`` list an experiment's runs at ``fidelity`` go to:
    hybrid timings live under ``<exp>@hybrid``, so a packet trend is
    never mixed with a hybrid one."""
    return exp_id if fidelity == "packet" else f"{exp_id}@{fidelity}"


def update_bench(report: SweepReport, bench_path: Optional[Path] = None) -> Path:
    """Merge this sweep's timings into the runtime ledger.

    Only what this sweep owns is replaced — its ``sweeps`` entry, plus
    one appended ``history`` record per executed experiment; other
    sweeps and foreign top-level keys are preserved verbatim.
    """
    path = Path(bench_path) if bench_path is not None else DEFAULT_BENCH
    data = read_json_object(path)
    data.setdefault("schema", 1)
    data.setdefault("kind", "bench.runtime")
    # the scale-blind latest-value table older ledgers carry; nothing reads it
    data.pop("runtimes", None)
    sha = git_sha()
    for exp_id in report.executed:
        # cache hits are skipped: they carry no fresh measurement
        append_history(
            data,
            history_key(exp_id, report.fidelity),
            report.exp_seconds[exp_id],
            scale=report.scale,
            source="sweep",
            sha=sha,
        )
    sweeps = data.setdefault("sweeps", {})
    sweeps[report.key] = {
        "experiments": len(report.experiments),
        "jobs": report.jobs,
        "fidelity": report.fidelity,
        "seconds": round(report.seconds, 3),
        "cached": len(report.cached),
        "digests": dict(report.digests),
        "per_experiment": {
            k: round(v, 3) for k, v in sorted(report.exp_seconds.items())
        },
    }
    return write_json_atomic(path, data)


def check_regressions(
    current_path: Path,
    baseline_path: Path,
    key: Optional[str] = None,
    threshold: float = 0.25,
) -> Tuple[List[str], List[str]]:
    """Compare per-experiment sweep timings between two runtime ledgers.

    Returns ``(failures, lines)``: human-readable failure strings and a
    full comparison log.  Ratios are normalised by their median before
    the threshold is applied, so a uniformly slower machine (every figure
    2x) does not trip the gate while a single experiment regressing does.
    """
    cur = read_json_object(Path(current_path)).get("sweeps", {})
    base = read_json_object(Path(baseline_path)).get("sweeps", {})
    keys = [key] if key else sorted(set(cur) & set(base))
    failures: List[str] = []
    lines: List[str] = []
    compared = 0
    for k in keys:
        cur_pe = cur.get(k, {}).get("per_experiment") or {}
        base_pe = base.get(k, {}).get("per_experiment") or {}
        shared = sorted(set(cur_pe) & set(base_pe))
        ratios = {
            e: cur_pe[e] / base_pe[e] for e in shared if base_pe[e] > 0
        }
        if not ratios:
            continue
        compared += len(ratios)
        ordered = sorted(ratios.values())
        median = ordered[len(ordered) // 2]
        lines.append(f"[gate] {k}: {len(ratios)} experiments, median ratio {median:.2f}")
        for e, r in sorted(ratios.items()):
            norm = r / median if median > 0 else r
            mark = "REGRESSED" if norm > 1.0 + threshold else "ok"
            lines.append(
                f"[gate]   {e:<26} {base_pe[e]:8.1f}s -> {cur_pe[e]:8.1f}s "
                f"(x{r:.2f}, normalised x{norm:.2f}) {mark}"
            )
            if norm > 1.0 + threshold:
                failures.append(
                    f"{k}: {e} regressed x{norm:.2f} normalised "
                    f"({base_pe[e]:.1f}s -> {cur_pe[e]:.1f}s, threshold x{1 + threshold:.2f})"
                )
    if compared == 0:
        failures.append(
            f"no comparable sweep timings between {current_path} and "
            f"{baseline_path}" + (f" for key {key!r}" if key else "")
        )
    return failures, lines
