"""Runtime determinism sanitizer: perturb tie-breaking, diff the traces.

Static rules catch the *patterns* that cause nondeterminism; this module
catches the *fact* of it.  :class:`DeterminismSanitizer` runs one named
experiment twice, each run in a fresh subprocess with the perturbations
that flush out hidden ordering dependence:

* **reversed same-vtime tie-breaking** — run A uses the engine's FIFO
  order for equal-time events, run B LIFO (``REPRO_TIE_BREAK=lifo``).
  Causally unrelated events that happen to share a float timestamp must
  commute; if any component secretly depends on their interleaving, the
  runs diverge.
* **different hash seeds** — ``PYTHONHASHSEED`` differs between the
  runs, so any iteration over a ``set`` (or other hash-ordered
  container) that leaks into scheduling or telemetry reorders.

Both runs record a full telemetry trace (packet-detail tier included;
JSONL or the ``.rtrc`` binary store), and the two traces are then
compared **byte for byte**, event by event.  The comparison streams in
fixed-size chunks — a packet-tier fig08 trace is 7M+ events, and
paper-scale traces will not fit in memory — and only on a byte mismatch
re-walks the records to pinpoint the first divergent event with its
surrounding context (the qlog-ish equivalent of a sanitizer stack
trace).  A clean experiment produces identical streams.

Each run is a subprocess because ``PYTHONHASHSEED`` is fixed at
interpreter start; the worker is the ordinary CLI, ``python -m repro run
<exp> --trace PATH [--trace-packets] --set k=v ...``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.export import TRACE_FORMATS, open_trace

#: (tie_break, PYTHONHASHSEED) for the two perturbed runs.
PERTURBATIONS: Tuple[Tuple[str, str], ...] = (("fifo", "1"), ("lifo", "2"))


@dataclass
class Divergence:
    """First point where the two perturbed traces disagree."""

    index: int  # 0-based event index (meta line excluded)
    line_a: Optional[str]  # raw JSONL, None = stream A ended early
    line_b: Optional[str]
    context: List[str] = field(default_factory=list)  # events just before

    def _describe(self, line: Optional[str]) -> str:
        if line is None:
            return "<end of trace>"
        try:
            rec = json.loads(line)
        except ValueError:
            return line[:120]
        bits = [f"t={rec.get('t')}", f"kind={rec.get('kind')}", f"src={rec.get('src')}"]
        for key in ("seq", "uid", "flow", "reason"):
            if key in rec:
                bits.append(f"{key}={rec[key]}")
        return " ".join(bits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "a": self.line_a,
            "b": self.line_b,
            "context": list(self.context),
        }

    def format(self) -> str:
        lines = [f"first divergence at event #{self.index}:"]
        for tag, line in (("A(fifo)", self.line_a), ("B(lifo)", self.line_b)):
            lines.append(f"  {tag}: {self._describe(line)}")
        if self.context:
            lines.append("  preceding events (common to both runs):")
            for c in self.context:
                lines.append(f"    {self._describe(c)}")
        return "\n".join(lines)


@dataclass
class SanitizerResult:
    """Outcome of one dual-run determinism check."""

    exp_id: str
    deterministic: bool
    events: int  # events compared (excluding the trace.meta header)
    divergence: Optional[Divergence] = None
    runs: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": 1,
            "kind": "lint.sanitize",
            "exp_id": self.exp_id,
            "deterministic": self.deterministic,
            "events": self.events,
            "divergence": self.divergence.to_dict() if self.divergence else None,
            "runs": list(self.runs),
        }

    def format(self) -> str:
        if self.deterministic:
            return (
                f"determinism sanitizer: {self.exp_id} OK — "
                f"{self.events} events byte-identical across "
                "fifo/lifo tie-break and differing hash seeds"
            )
        assert self.divergence is not None
        return (
            f"determinism sanitizer: {self.exp_id} DIVERGED\n"
            + self.divergence.format()
        )


#: Chunk size for the streaming byte comparison (1 MiB).
_DIFF_CHUNK = 1 << 20


def diff_traces(
    path_a: Path, path_b: Path, context: int = 5
) -> Tuple[int, Optional[Divergence]]:
    """Byte-compare two traces event by event, streaming.

    The ``trace.meta`` header of each trace is skipped (it may carry
    run-specific metadata); every subsequent byte must match.  The
    comparison runs in fixed-size chunks with O(chunk) memory; only when
    the streams differ are the records re-walked to report the first
    divergent event with its preceding context.  Works on either trace
    format (both sides must share one).
    Returns (events_compared, first_divergence_or_None).
    """
    with open_trace(path_a) as ra, open_trace(path_b) as rb:
        with ra.event_stream() as fa, rb.event_stream() as fb:
            while True:
                ca = fa.read(_DIFF_CHUNK)
                if ca != fb.read(_DIFF_CHUNK):
                    break
                if not ca:
                    return ra.events_total, None

        # Byte mismatch: re-walk the records for the precise first divergence.
        recent: List[str] = []
        index = 0
        ia, ib = ra.iter_jsonl(), rb.iter_jsonl()
        while True:
            la = next(ia, None)
            lb = next(ib, None)
            if la is None and lb is None:
                # compressed bytes differed but the event streams agree
                # (e.g. re-blocked .rtrc); that is still deterministic.
                return index, None
            if la != lb:
                return index, Divergence(
                    index=index, line_a=la, line_b=lb, context=list(recent)
                )
            assert la is not None
            recent.append(la)
            if len(recent) > context:
                recent.pop(0)
            index += 1


def _worker_argv(
    exp_id: str, trace_path: Path, overrides: Dict[str, Any], packets: bool
) -> List[str]:
    argv = [sys.executable, "-m", "repro", "run", exp_id, "--trace", str(trace_path)]
    if packets:
        argv.append("--trace-packets")
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value!r}" if isinstance(value, str) else f"{key}={value}"]
    return argv


class DeterminismSanitizer:
    """Run an experiment under both perturbations and diff the traces.

    Parameters
    ----------
    exp_id:
        Experiment id as listed by ``repro-udt list`` (e.g. ``fig02``).
    overrides:
        Runner keyword overrides, like the CLI's ``--set`` (use reduced
        durations for smoke runs).
    packets:
        Record the per-packet detail tier too (default True — more
        sensitive, bigger traces).
    workdir:
        Where to keep the two traces; a temp dir (deleted on success,
        kept on divergence for forensics) when omitted.
    trace_format:
        ``jsonl`` (default) or ``rtrc`` — the on-disk format the
        perturbed runs record and the diff streams over.
    """

    def __init__(
        self,
        exp_id: str,
        overrides: Optional[Dict[str, Any]] = None,
        packets: bool = True,
        workdir: Optional[str] = None,
        timeout: float = 900.0,
        trace_format: str = "jsonl",
    ):
        if trace_format not in TRACE_FORMATS:
            raise ValueError(
                f"trace_format must be one of {TRACE_FORMATS}, "
                f"got {trace_format!r}"
            )
        self.exp_id = exp_id
        self.overrides = dict(overrides or {})
        self.packets = packets
        self.workdir = workdir
        self.timeout = timeout
        self.trace_format = trace_format

    def _spawn(self, trace_path: Path, tie_break: str, hashseed: str) -> Dict[str, Any]:
        env = dict(os.environ)
        env["REPRO_TIE_BREAK"] = tie_break
        env["PYTHONHASHSEED"] = hashseed
        # The worker must resolve the same repro package as this process.
        pkg_root = Path(__file__).resolve().parent.parent.parent
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(pkg_root), env.get("PYTHONPATH")) if p
        )
        argv = _worker_argv(self.exp_id, trace_path, self.overrides, self.packets)
        proc = subprocess.run(
            argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=self.timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"sanitizer worker failed (tie_break={tie_break}, "
                f"rc={proc.returncode}):\n{proc.stderr.decode(errors='replace')[-2000:]}"
            )
        return {
            "tie_break": tie_break,
            "hashseed": hashseed,
            "trace": str(trace_path),
            "bytes": trace_path.stat().st_size,
        }

    def run(self) -> SanitizerResult:
        own_tmp = self.workdir is None
        workdir = Path(self.workdir or tempfile.mkdtemp(prefix="repro-sanitize-"))
        workdir.mkdir(parents=True, exist_ok=True)
        runs: List[Dict[str, Any]] = []
        paths: List[Path] = []
        for tie_break, hashseed in PERTURBATIONS:
            trace_path = workdir / f"{self.exp_id}-{tie_break}.{self.trace_format}"
            runs.append(self._spawn(trace_path, tie_break, hashseed))
            paths.append(trace_path)
        events, divergence = diff_traces(paths[0], paths[1])
        result = SanitizerResult(
            exp_id=self.exp_id,
            deterministic=divergence is None,
            events=events,
            divergence=divergence,
            runs=runs,
        )
        if divergence is None and own_tmp:
            for p in paths:
                p.unlink(missing_ok=True)
            try:
                workdir.rmdir()
            except OSError:
                pass
        return result
