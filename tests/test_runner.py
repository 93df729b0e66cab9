"""Sweep runner: digests, the result cache, and worker orchestration.

The expensive end-to-end properties (full-sweep wall clock, warm-sweep
cache hits at scale) live in CI's sweep-smoke job; here we pin the
invariants the cache's correctness rests on: digest stability across
processes and hash seeds, invalidation on config/source change, corrupt
entry self-healing, and jobs-independence of results and traces.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner.cache import ResultCache
from repro.runner.digest import SRC_ROOT, experiment_digest, import_closure
from repro.runner.sweep import (
    SweepReport,
    check_regressions,
    run_sweep,
    select_experiments,
    update_bench,
)

SCALE = 0.05

#: Consumers of the bus and of result tables: nothing a run executes.
PRESENTATION = [
    f"repro/obs/{name}.py"
    for name in (
        "claims", "figspec", "figures", "report", "spans", "timeline", "prof"
    )
]


class TestDigest:
    def test_stable_within_process(self):
        d1, _ = experiment_digest("fig02", SCALE)
        d2, _ = experiment_digest("fig02", SCALE)
        assert d1 == d2
        assert len(d1) == 64

    def test_stable_across_processes_and_hash_seeds(self):
        """PYTHONHASHSEED must not leak into the digest."""
        code = (
            "from repro.runner.digest import experiment_digest;"
            f"print(experiment_digest('fig02', {SCALE})[0])"
        )
        digests = set()
        for seed in ("0", "12345"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = seed
            env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", code],
                env=env, check=True, capture_output=True, text=True,
            )
            digests.add(out.stdout.strip())
        digests.add(experiment_digest("fig02", SCALE)[0])
        assert len(digests) == 1

    def test_scale_and_overrides_invalidate(self):
        base, _ = experiment_digest("fig02", SCALE)
        other_scale, _ = experiment_digest("fig02", 0.3)
        with_override, _ = experiment_digest("fig02", SCALE, {"duration": 5})
        other_override, _ = experiment_digest("fig02", SCALE, {"duration": 6})
        assert len({base, other_scale, with_override, other_override}) == 4
        # tuple-valued overrides are representable and order-insensitive
        a, _ = experiment_digest("fig02", SCALE, {"rtts": (0.01,), "n_flows": 4})
        b, _ = experiment_digest("fig02", SCALE, {"n_flows": 4, "rtts": (0.01,)})
        assert a == b

    def test_experiments_differ(self):
        d1, _ = experiment_digest("fig02", SCALE)
        d2, _ = experiment_digest("fig09", SCALE)
        assert d1 != d2

    def test_closure_covers_the_stack_but_not_other_experiments(self):
        files = {p.relative_to(SRC_ROOT).as_posix() for p in
                 import_closure(["repro.experiments.fig02_fairness"])}
        assert "repro/sim/engine.py" in files
        assert "repro/sim/link.py" in files
        assert "repro/udt/core.py" in files
        assert "repro/experiments/fig09_losslist.py" not in files
        # the core's one instrumentation seam is in; what reads the bus
        # from outside (figures, reports, the profiler) is not
        assert "repro/obs/bus.py" in files
        for tool in PRESENTATION:
            assert tool not in files

    def test_source_change_invalidates(self, monkeypatch):
        """A changed content hash for any closure file changes the digest."""
        import repro.runner.digest as digest_mod

        base, files = experiment_digest("fig02", SCALE)
        target = next(iter(sorted(files)))
        real = digest_mod.file_sha256

        def tweaked(path):
            h = real(path)
            if path.relative_to(SRC_ROOT).as_posix() == target:
                return h[::-1]
            return h

        monkeypatch.setattr(digest_mod, "file_sha256", tweaked)
        changed, _ = experiment_digest("fig02", SCALE)
        assert changed != base

    def test_no_key_covers_a_presentation_module(self, monkeypatch):
        """Editing a claim band or a figure tolerance re-keys nothing."""
        import repro.runner.digest as digest_mod
        from repro.experiments import REGISTRY

        for exp_id in REGISTRY:
            _, files = experiment_digest(exp_id, SCALE)
            assert not set(PRESENTATION) & set(files), exp_id

        base, _ = experiment_digest("table1", SCALE)
        real = digest_mod.file_sha256

        def tweaked(path):
            h = real(path)
            if path.relative_to(SRC_ROOT).as_posix() == "repro/obs/claims.py":
                return h[::-1]
            return h

        monkeypatch.setattr(digest_mod, "file_sha256", tweaked)
        assert experiment_digest("table1", SCALE)[0] == base


def _repro_modules_after(code: str, *argv: str) -> set:
    """The ``repro.*`` modules a fresh interpreter holds after ``code``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('repro.')))"
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, check=True, capture_output=True, text=True,
    )
    return set(out.stdout.splitlines()[-1].split())


class TestImportDirection:
    """DESIGN.md, "Dependency direction": core -> obs.bus, tools -> core,
    and a registry lookup imports no experiment."""

    def test_the_core_loads_the_bus_and_none_of_its_tooling(self):
        loaded = _repro_modules_after("import repro.sim, repro.udt, repro.tcp")
        assert {m for m in loaded if m.startswith("repro.obs.")} == {"repro.obs.bus"}
        layers = {m.split(".")[1] for m in loaded}
        assert not layers & {"analysis", "runner", "experiments", "cli"}, loaded

    def test_a_digest_imports_no_experiment_and_a_runner_exactly_one(self):
        keep = {"repro.experiments.common", "repro.experiments.registry"}
        loaded = _repro_modules_after(
            "import repro.experiments\n"
            "from repro.runner.digest import experiment_digest\n"
            f"experiment_digest('fig02', {SCALE})"
        )
        assert {m for m in loaded if m.startswith("repro.experiments.")} == keep
        loaded = _repro_modules_after(
            "from repro.experiments import get_experiment\n"
            "get_experiment('fig02').runner"
        )
        assert {m for m in loaded if m.startswith("repro.experiments.")} == keep | {
            "repro.experiments.fig02_fairness"
        }

    def test_a_worker_never_loads_the_orchestrator(self, tmp_path):
        out = tmp_path / "entry.json"
        loaded = _repro_modules_after(
            "import runpy\n"
            "try:\n"
            "    runpy.run_module('repro.runner', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code",
            "--worker", "table1", "--out", str(out),
        )
        assert json.loads(out.read_text())["exp_id"] == "table1"
        assert "repro.runner.sweep" not in loaded
        assert {m for m in loaded if m.startswith("repro.experiments.")} == {
            "repro.experiments.common",
            "repro.experiments.registry",
            "repro.experiments.table1_increase",
        }


class TestCache:
    DIGEST = "ab" * 32

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.DIGEST, {"exp_id": "x", "seconds": 1.5, "result": {"rows": []}})
        entry = cache.load(self.DIGEST)
        assert entry is not None
        assert entry["exp_id"] == "x"
        assert entry["digest"] == self.DIGEST
        assert self.DIGEST in cache

    def test_miss(self, tmp_path):
        assert ResultCache(tmp_path).load("cd" * 32) is None

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(self.DIGEST, {"result": {}})
        cache.path(self.DIGEST).write_text("{not json")
        assert cache.load(self.DIGEST) is None
        assert cache.corrupt_dropped == 1
        assert not cache.path(self.DIGEST).exists()
        # and a fresh store heals it
        cache.store(self.DIGEST, {"result": {"ok": True}})
        assert cache.load(self.DIGEST)["result"] == {"ok": True}

    def test_schema_or_digest_mismatch_is_corruption(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.store(self.DIGEST, {"result": {}})
        entry = json.loads(path.read_text())
        entry["digest"] = "ef" * 32
        path.write_text(json.dumps(entry))
        assert cache.load(self.DIGEST) is None
        assert cache.corrupt_dropped == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path("../../etc/passwd")


class TestSelect:
    def test_all(self):
        selector, ids = select_experiments(None)
        assert selector == "all"
        assert "fig02" in ids and len(ids) >= 25

    def test_subset_preserves_order_and_dedups(self):
        selector, ids = select_experiments(["fig09", "table1", "fig09"])
        assert selector == "fig09,table1"
        assert ids == ["fig09", "table1"]

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            select_experiments(["not-an-experiment"])


@pytest.mark.slow
class TestSweepEndToEnd:
    """Subprocess sweeps: cache behaviour and jobs-independence."""

    ONLY = ["table1", "fig09"]

    def test_cold_then_warm_then_jobs_independent(self, tmp_path):
        cache_dir = tmp_path / "cache"
        traces1 = tmp_path / "tr-jobs1"
        traces4 = tmp_path / "tr-jobs4"

        cold = run_sweep(only=self.ONLY, jobs=1, scale=SCALE, cache_dir=cache_dir)
        assert cold.ok and cold.executed == self.ONLY and not cold.cached

        warm = run_sweep(only=self.ONLY, jobs=1, scale=SCALE, cache_dir=cache_dir)
        assert warm.ok and warm.cached == self.ONLY and not warm.executed
        assert warm.digests == cold.digests

        # Trace runs execute (never served from cache) so traces exist to
        # compare; jobs must not affect a single byte of them.
        t1 = run_sweep(
            only=self.ONLY, jobs=1, scale=SCALE, cache_dir=cache_dir,
            trace_dir=traces1,
        )
        t4 = run_sweep(
            only=self.ONLY, jobs=4, scale=SCALE, cache_dir=cache_dir,
            trace_dir=traces4,
        )
        assert t1.ok and t4.ok
        for exp_id in self.ONLY:
            a = (traces1 / f"{exp_id}.jsonl").read_bytes()
            b = (traces4 / f"{exp_id}.jsonl").read_bytes()
            assert a == b, f"{exp_id}: trace differs between jobs=1 and jobs=4"

        # Cached results equal fresh results, modulo timing metadata.
        cache = ResultCache(cache_dir)
        for exp_id in self.ONLY:
            entry = cache.load(t4.digests[exp_id])
            assert entry is not None
            assert entry["exp_id"] == exp_id
            assert entry["result"]["rows"], f"{exp_id}: empty result cached"

    def test_fig08_rtrc_packet_trace_jobs_independent_and_compact(self, tmp_path):
        """A packet-tier fig08 traced to .rtrc is byte-identical between
        two fresh interpreters running side by side — what ``--jobs``
        does to a cell — and a fraction of the JSONL size.  A sweep cell
        takes no ``--set``, so the one-virtual-second cells (blast burst
        and NAK recovery included) are spawned directly in the sweep's
        worker environment; CI's trace-smoke runs the long form."""
        from repro.obs.export import convert_trace
        from repro.runner.sweep import _worker_env

        traces = [tmp_path / f"tr{jobs}" / "fig08.rtrc" for jobs in (1, 4)]
        cells = []
        for rtrc in traces:
            rtrc.parent.mkdir()
            cells.append(subprocess.Popen(
                [sys.executable, "-m", "repro", "run", "fig08", "--trace",
                 str(rtrc), "--trace-packets", "--set", "duration=1.0"],
                env=_worker_env(SCALE), stdout=subprocess.DEVNULL,
            ))
        assert [cell.wait(timeout=120) for cell in cells] == [0, 0]
        rtrc = traces[0]
        assert rtrc.read_bytes() == traces[1].read_bytes()
        back = tmp_path / "fig08.jsonl"
        n = convert_trace(rtrc, back)
        assert n > 20_000  # the packet tier was actually recorded
        assert rtrc.stat().st_size <= 0.25 * back.stat().st_size

    def test_failure_is_reported_not_raised(self, tmp_path, monkeypatch):
        import repro.runner.sweep as sweep_mod

        def broken(*a, **k):
            raise RuntimeError("worker exploded")

        monkeypatch.setattr(sweep_mod, "_run_worker", broken)
        report = run_sweep(only=["table1"], jobs=1, scale=SCALE,
                           cache_dir=tmp_path / "c")
        assert not report.ok
        assert "table1" in report.failures


class TestBenchMerge:
    def _report(self, **kw):
        rep = SweepReport(
            selector="fig02", scale=0.05, jobs=2, experiments=["fig02"],
            seconds=3.0, executed=["fig02"],
            digests={"fig02": "aa" * 32}, exp_seconds={"fig02": 2.5},
        )
        for k, v in kw.items():
            setattr(rep, k, v)
        return rep

    def test_merge_preserves_foreign_keys(self, tmp_path):
        """A legacy ledger still carrying the scale-blind ``runtimes``
        table loses exactly that key."""
        old_run = {"ts": "2026-08-01T00:00:00Z", "sha": "aaa", "seconds": 9.0,
                   "scale": 1.0, "source": "sweep"}
        bench = tmp_path / "BENCH_runtime.json"
        bench.write_text(json.dumps({
            "schema": 1, "kind": "bench.runtime",
            "runtimes": {"fig09_losslist": {"seconds": 8.2, "test": "x"}},
            "sweeps": {"old|scale=0.3|jobs=1": {"seconds": 1.0}},
            "history": {"fig02": [old_run], "fig04": [old_run]},
            "custom_section": {"keep": "me"},
        }))
        update_bench(self._report(), bench)
        data = json.loads(bench.read_text())
        assert "runtimes" not in data
        assert data["custom_section"] == {"keep": "me"}
        assert data["sweeps"]["old|scale=0.3|jobs=1"] == {"seconds": 1.0}
        assert data["history"]["fig04"] == [old_run]
        assert data["history"]["fig02"][0] == old_run
        assert [(h["seconds"], h["scale"]) for h in data["history"]["fig02"]] \
            == [(9.0, 1.0), (2.5, 0.05)]
        entry = data["sweeps"]["fig02|scale=0.05|jobs=2"]
        assert entry["digests"]["fig02"] == "aa" * 32
        assert entry["per_experiment"] == {"fig02": 2.5}

    def test_gate_passes_on_uniform_slowdown_fails_on_outlier(self, tmp_path):
        def ledger(path, seconds):
            path.write_text(json.dumps({
                "schema": 1, "sweeps": {"all|scale=0.05|jobs=2": {
                    "per_experiment": seconds}},
            }))

        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        ledger(base, {"a": 10.0, "b": 20.0, "c": 30.0})
        # everything 2x slower (slower machine): normalised ratios are 1.0
        ledger(cur, {"a": 20.0, "b": 40.0, "c": 60.0})
        failures, _ = check_regressions(cur, base)
        assert failures == []
        # one experiment 2x slower than its peers: that's a regression
        ledger(cur, {"a": 10.0, "b": 20.0, "c": 60.0})
        failures, _ = check_regressions(cur, base)
        assert len(failures) == 1 and "c" in failures[0]

    def test_gate_fails_when_nothing_comparable(self, tmp_path):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        base.write_text("{}")
        cur.write_text("{}")
        failures, _ = check_regressions(cur, base)
        assert failures
