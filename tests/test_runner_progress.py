"""Live sweep telemetry: worker heartbeats, the progress board, the feed.

The reporter is tested against real engine runs (the live event count
is read from another thread while ``run()`` is on the stack) and with a
stub simulator for the rate/ETA arithmetic; the board is pure record
writing and tests directly.  The end-to-end ``sweep --progress``
path (subprocess pipe included) lives in the slow tier with the other
subprocess sweeps.
"""

import io
import json
import time

import pytest

from repro.runner.progress import (
    HEARTBEAT,
    ProgressBoard,
    ProgressReporter,
    default_progress_path,
)

SCALE = 0.05


def _tiny_run():
    from repro.sim.topology import path_topology
    from repro.udt import start_udt_flow

    top = path_topology(20e6, 0.01)
    start_udt_flow(top.net, top.src, top.dst)
    top.net.run(until=2.0)
    return top.net.sim


class TestReporter:
    def test_patch_is_restored(self):
        """There is no patch any more: the reporter registers with the
        engine, ``Simulator.run`` stays the import-time function and the
        registration is gone after exit."""
        from repro.sim import engine

        orig = engine.Simulator.__dict__["run"]
        rep = ProgressReporter("x", interval=10.0, out=io.StringIO())
        with rep:
            assert engine.Simulator.__dict__["run"] is orig
            assert engine.run_observers() == (rep,)
        assert engine.Simulator.__dict__["run"] is orig
        assert engine.run_observers() == ()

    def test_double_start_rejected(self):
        rep = ProgressReporter("x", interval=10.0, out=io.StringIO())
        with rep:
            with pytest.raises(RuntimeError):
                rep.start()

    def test_events_accumulate_across_runs(self):
        rep = ProgressReporter("x", interval=10.0, out=io.StringIO())
        with rep:
            sim1 = _tiny_run()
            sim2 = _tiny_run()
            rec = rep.sample()
        assert rec["kind"] == HEARTBEAT and rec["exp"] == "x"
        assert rec["events"] == sim1.events_processed + sim2.events_processed
        assert rec["events"] > 1000
        assert "vt" not in rec  # no simulator running at sample time

    def test_live_event_count_needs_no_frame_access(self, monkeypatch):
        """Heartbeats sampled from another thread during ONE long run()
        show the count climbing — read off the simulator, with frame
        walking made impossible."""
        import sys
        import threading

        from repro.sim.engine import Simulator

        def no_frames():
            raise AssertionError("the sampler must not walk frames")

        monkeypatch.setattr(sys, "_current_frames", no_frames)
        rep = ProgressReporter("x", interval=60.0, out=io.StringIO())
        sim = Simulator()
        samples = []
        wake_main = threading.Event()
        wake_sampler = threading.Event()

        def sampler():
            for _ in range(5):
                wake_sampler.wait(timeout=10.0)
                wake_sampler.clear()
                samples.append(rep.sample())
                wake_main.set()

        def tick(n):
            if n % 1000 == 0 and len(samples) < 5:
                wake_main.clear()
                wake_sampler.set()
                wake_main.wait(timeout=10.0)
            if n < 10_000:
                sim.post(1e-3, tick, n + 1)

        thread = threading.Thread(target=sampler, daemon=True)
        with rep:
            thread.start()
            sim.post(0.0, tick, 1)
            sim.run(until=100.0)
            thread.join(timeout=10.0)
        assert not thread.is_alive()
        events = [rec["events"] for rec in samples]
        assert events == [1000, 2000, 3000, 4000, 5000]
        assert all(rec["vt_end"] == 100.0 for rec in samples)
        vts = [rec["vt"] for rec in samples]
        assert vts == sorted(vts) and vts[0] > 0
        assert rep.sample()["events"] == sim.events_processed == 10_000

    def test_rate_and_eta_from_stub_sim(self):
        """The cross-thread contract, as a stand-in simulator: the
        heartbeat thread reads ``now`` and ``events_processed`` on the
        live simulator and nothing else, stores nothing, calls nothing.
        The stand-in has exactly those two slots and refuses every store,
        so any other read, any call and any store raises AttributeError
        in the real thread, which then stops beating."""

        class Stub:
            __slots__ = ("now", "events_processed")

            def __setattr__(self, name, value):
                raise AttributeError(f"sim.{name} stored through the reporter")

        def engine_writes(now, events):  # the dispatch loop's side
            object.__setattr__(stub, "events_processed", events)
            object.__setattr__(stub, "now", now)

        def beats_until(done):
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                assert rep._thread.is_alive(), (
                    "the heartbeat thread died on the stand-in simulator"
                )
                beats = [json.loads(l) for l in out.getvalue().splitlines()]
                if done(beats):
                    return beats
                time.sleep(0.01)
            raise AssertionError("no heartbeat within 10 s")

        stub = Stub()
        engine_writes(1.0, 0)
        out = io.StringIO()
        rep = ProgressReporter("x", interval=0.05, out=out)
        with rep:
            rep.run_begin(stub, 5.0)
            first = beats_until(lambda beats: len(beats) >= 2)[0]
            assert first["vt"] == 1.0 and first["vt_end"] == 5.0
            engine_writes(2.0, 50_000)
            beats = beats_until(lambda beats: any("eta" in b for b in beats))
        assert any(b.get("eps", 0) > 0 for b in beats)
        # the beat that saw vt move from 1 to 2: 3 virtual seconds left
        # at 1 virtual second per that wall interval
        moved = next(b for b in beats if b["vt"] == 2.0)
        assert moved["events"] == 50_000
        dw = moved["wall"] - beats[beats.index(moved) - 1]["wall"]
        assert moved["eta"] == pytest.approx(3.0 * dw, abs=0.1)

    def test_heartbeat_thread_writes_json_lines(self):
        out = io.StringIO()
        with ProgressReporter("x", interval=0.02, out=out):
            time.sleep(0.1)
        lines = [l for l in out.getvalue().splitlines() if l]
        assert lines, "no heartbeat emitted"
        for line in lines:
            rec = json.loads(line)
            assert rec["kind"] == HEARTBEAT


class TestBoard:
    def _feed(self, path):
        board = ProgressBoard(path=path, line_interval=0.0)
        board.sweep_begin("fig02", 0.05, 2, pending=["fig02"], cached=["fig09"])
        board.worker_start("fig02")
        board.heartbeat(
            "fig02",
            {"kind": HEARTBEAT, "exp": "fig02", "wall": 1.0, "events": 1000,
             "vt": 2.0, "vt_end": 5.0, "eps": 1000, "eta": 3.0},
        )
        board.worker_done("fig02", 2.5)
        board.sweep_end(3.0, executed=1, failed=0)
        return board

    def test_records_are_stamped_and_appended(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        self._feed(path)
        recs = [json.loads(l) for l in path.read_text().splitlines()]
        kinds = [r["kind"] for r in recs]
        assert kinds == [
            "sweep.begin", "sweep.worker_start", HEARTBEAT,
            "sweep.worker_done", "sweep.end",
        ]
        assert all("ts" in r for r in recs)

    def test_begin_truncates_previous_feed(self, tmp_path):
        path = tmp_path / "progress.jsonl"
        path.write_text("stale\n")
        ProgressBoard(path=path)
        assert path.read_text() == ""

    def test_status_lines_are_rate_limited(self, tmp_path):
        lines = []
        board = ProgressBoard(
            path=tmp_path / "p.jsonl", emit=lines.append, line_interval=60.0
        )
        hb = {"kind": HEARTBEAT, "exp": "fig02", "wall": 1.0, "events": 10}
        board.heartbeat("fig02", hb)
        board.heartbeat("fig02", hb)
        assert len(lines) == 1  # second one suppressed
        board.heartbeat("fig08", dict(hb, exp="fig08"))
        assert len(lines) == 2  # per-experiment limiter

    def test_format_line_renders_frontier_and_eta(self):
        line = ProgressBoard.format_line(
            "fig02",
            {"vt": 2.0, "vt_end": 5.0, "eps": 209_000, "events": 89_000,
             "eta": 1.2, "wall": 0.4},
        )
        assert "[progress] fig02" in line
        assert "vt   2.000/5.000s ( 40%)" in line
        assert "209k ev/s" in line and "89k events" in line
        assert "eta 1s" in line and "wall 0.4s" in line

    def test_default_progress_path_lives_in_cache_dir(self, tmp_path):
        assert default_progress_path(tmp_path) == tmp_path / "progress.jsonl"


@pytest.mark.slow
class TestSweepProgressEndToEnd:
    def test_progress_feed_records_worker_lifecycle(self, tmp_path):
        from repro.runner.sweep import run_sweep

        cache = tmp_path / "cache"
        report = run_sweep(
            only=["table1"], jobs=1, scale=SCALE, cache_dir=cache, progress=True,
        )
        assert report.ok
        recs = [
            json.loads(l)
            for l in default_progress_path(cache).read_text().splitlines()
        ]
        kinds = [r["kind"] for r in recs]
        assert kinds[0] == "sweep.begin" and kinds[-1] == "sweep.end"
        assert "sweep.worker_start" in kinds
        assert "sweep.worker_done" in kinds
        done = [r for r in recs if r["kind"] == "sweep.worker_done"]
        assert [r["exp"] for r in done] == ["table1"]
