"""Tests for the simulator hot-path profiler (repro.obs.prof)."""

import importlib
import io
import json

import pytest

from repro.obs.prof import PROFILE_SCHEMA, SimProfiler, categorize
from repro.sim.engine import (
    RunObserver,
    Simulator,
    Timer,
    add_run_observer,
    remove_run_observer,
    run_observers,
)


#: ``Simulator.run`` as imported — nothing may ever replace it.
_IMPORT_TIME_RUN = Simulator.__dict__["run"]


def _run_timed(sim, until=None, acc=None):
    """``sim.run(until)`` with ``acc`` handed to it through the seam."""
    acc = {} if acc is None else acc

    class Timed(RunObserver):
        def run_begin(self, sim, until):
            return acc

    ob = Timed()
    add_run_observer(ob)
    try:
        sim.run(until)
    finally:
        remove_run_observer(ob)
    return acc


class TestRunProfiled:
    """The timed branch of the one dispatch loop (was ``run_profiled``)."""

    def test_matches_run_semantics(self):
        sim = Simulator()
        seen = []
        sim.schedule(0.3, seen.append, "c")
        sim.schedule(0.1, seen.append, "a")
        ev = sim.schedule(0.2, seen.append, "b")
        ev.cancel()
        acc = _run_timed(sim)
        assert seen == ["a", "c"]
        assert sim.events_processed == 2
        assert sum(c for c, _ in acc.values()) == 2

    def test_until_advances_clock(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(5.0, lambda: None)
        _run_timed(sim, until=2.0)
        assert sim.now == 2.0

    def test_accumulator_shared_across_segments(self):
        sim = Simulator()
        acc = {}
        sim.schedule(0.1, lambda: None)
        _run_timed(sim, until=1.0, acc=acc)
        sim.schedule(0.5, lambda: None)
        _run_timed(sim, acc=acc)
        other = Simulator()
        other.post(0.1, lambda: None)
        _run_timed(other, acc=acc)
        assert sum(c for c, _ in acc.values()) == 3

    def test_timer_charged_to_wrapped_callback(self):
        sim = Simulator()
        fired = []

        def my_handler():
            fired.append(sim.now)

        Timer(sim, my_handler).restart(0.5)
        acc = _run_timed(sim)
        assert fired == [0.5]
        assert my_handler in acc
        assert Timer._fire not in acc

    def test_observers_told_once_per_run_even_when_a_handler_raises(self):
        calls = []

        class Log(RunObserver):
            def run_begin(self, sim, until):
                calls.append(("begin", until))

            def run_end(self, sim, until):
                calls.append(("end", until))

        def boom():
            raise ValueError("boom")

        sim = Simulator()
        sim.schedule(0.1, lambda: None)
        sim.schedule(0.2, boom)
        ob = Log()
        add_run_observer(ob)
        try:
            with pytest.raises(ValueError):
                sim.run(until=1.0)
        finally:
            remove_run_observer(ob)
        assert calls == [("begin", 1.0), ("end", 1.0)]
        assert sim.events_processed == 2
        sim.run()  # unregistered: no further calls
        assert len(calls) == 2


class TestSimProfiler:
    def test_instance_install_and_uninstall(self):
        sim = Simulator()  # constructed *before* install
        prof = SimProfiler()
        prof.install()
        sim.schedule(0.1, lambda: None)
        sim.run()
        prof.uninstall()
        assert prof.events_total == 1
        assert prof.runs == 1
        assert prof.wall_seconds > 0
        assert "run" not in vars(sim)
        sim.schedule(0.1, lambda: None)
        sim.run()  # uninstalled: not counted
        assert prof.events_total == 1 and prof.runs == 1

    def test_class_install_captures_new_simulators(self):
        prof = SimProfiler()
        with prof.activate():
            sim = Simulator()  # constructed *after* install
            sim.schedule(0.1, lambda: None)
            sim.schedule(0.2, lambda: None)
            sim.run()
        assert prof.events_total == 2
        assert run_observers() == ()

    def test_class_install_is_exclusive(self):
        with SimProfiler().activate() as prof:
            with pytest.raises(RuntimeError):
                SimProfiler().install()
            assert prof.install() is prof  # re-installing oneself is a no-op
            assert run_observers() == (prof,)
        assert run_observers() == ()

    def test_uninstall_restores_after_exception(self):
        with pytest.raises(ValueError):
            with SimProfiler().activate():
                raise ValueError("boom")
        assert run_observers() == ()

    @pytest.mark.parametrize("profiler_leaves_first", [True, False])
    def test_profiler_and_reporter_nest_in_either_exit_order(
        self, profiler_leaves_first
    ):
        """Both tools register; neither replaces ``Simulator.run``, so
        whichever leaves first cannot un-install the other."""
        from repro.runner.progress import ProgressReporter

        prof = SimProfiler().install()
        rep = ProgressReporter("x", interval=60.0, out=io.StringIO()).start()
        assert Simulator.__dict__["run"] is _IMPORT_TIME_RUN
        sim = Simulator()
        sim.post(0.1, list)
        sim.run()
        first, second = (
            (prof.uninstall, rep.stop) if profiler_leaves_first
            else (rep.stop, prof.uninstall)
        )
        first()
        sim.post(0.1, list)
        sim.run()  # the one still registered keeps seeing runs
        second()
        assert run_observers() == ()
        assert Simulator.__dict__["run"] is _IMPORT_TIME_RUN
        assert "run" not in vars(sim)
        assert prof.events_total == (1 if profiler_leaves_first else 2)
        assert rep.sample()["events"] == (2 if profiler_leaves_first else 1)

    def test_categories_merge_and_sort(self):
        prof = SimProfiler()
        with prof.activate():
            sim = Simulator()
            for i in range(5):
                sim.schedule(0.1 * i, list)  # same fn, one category
            sim.run()
        cats = prof.categories()
        assert len(cats) == 1
        row = cats[0]
        assert set(row) == {"category", "events", "seconds", "share"}
        assert row["events"] == 5
        assert row["share"] == pytest.approx(1.0)

    def test_top_limits_rows(self):
        prof = SimProfiler()
        with prof.activate():
            sim = Simulator()
            sim.schedule(0.1, list)  # builtins
            sim.schedule(0.2, json.JSONEncoder)  # json.encoder
            sim.schedule(0.3, io.BytesIO)  # _io
            sim.run()
        assert len(prof.top(2)) == 2
        assert len(prof.categories()) == 3

    def test_write_json_schema(self, tmp_path):
        prof = SimProfiler()
        with prof.activate():
            sim = Simulator()
            sim.schedule(0.1, list)
            sim.run()
        path = tmp_path / "BENCH_profile_test.json"
        prof.write_json(str(path), exp_id="test")
        d = json.loads(path.read_text())
        assert d["schema"] == PROFILE_SCHEMA
        assert d["kind"] == "bench.profile"
        assert d["exp_id"] == "test"
        assert d["events_total"] == 1
        for row in d["categories"]:
            assert set(row) == {"category", "events", "seconds", "share"}

    def test_to_text_renders(self):
        prof = SimProfiler()
        with prof.activate():
            sim = Simulator()
            sim.schedule(0.1, list)
            sim.run()
        text = prof.to_text()
        assert "simulator profile" in text
        assert "category" in text


class TestCategorize:
    def test_known_handlers_mapped(self):
        """A handler is filed under the layer whose module defines it."""
        from repro.runner.progress import ProgressReporter
        from repro.sim.link import Link
        from repro.udt.core import UdtCore

        assert categorize(Link._drain) == "sim.link"
        assert categorize(Link.send) == "sim.link"
        assert categorize(UdtCore._on_send_timer) == "udt.core"
        assert categorize(UdtCore._on_syn_timer) == "udt.core"
        assert categorize(ProgressReporter.run_begin) == "runner"

    def test_every_mapped_handler_exists(self):
        """Every layer a profiled run reports is a module of the package."""
        from repro.sim.topology import path_topology
        from repro.udt import start_udt_flow

        prof = SimProfiler()
        with prof.activate():
            top = path_topology(50e6, 0.02, loss_rate=0.01, seed=7)
            start_udt_flow(top.net, top.src, top.dst, flow_id="p")
            top.net.run(until=1.0)
        layers = {row["category"] for row in prof.categories()}
        assert {"sim.link", "udt.core"} <= layers
        for layer in layers:
            assert importlib.import_module(f"repro.{layer}"), layer

    def test_a_handler_outside_the_package_keeps_its_module(self):
        def my_fn():
            pass

        assert categorize(my_fn) == __name__
        assert categorize(list) == "builtins"


class TestProfiledExperiment:
    def test_profiling_does_not_perturb_virtual_time(self):
        """A profiled run must be deterministic and identical to unprofiled."""
        from repro.sim.topology import path_topology
        from repro.udt import start_udt_flow

        def run_flow(profiled):
            top = path_topology(50e6, 0.02, seed=7)
            f = start_udt_flow(top.net, top.src, top.dst, flow_id="p")
            if profiled:
                prof = SimProfiler()
                with prof.activate():
                    top.net.run(until=2.0)
                assert prof.events_total > 100
                assert prof.categories()[0]["events"] > 0
            else:
                top.net.run(until=2.0)
            return f.receiver.delivered_bytes, top.net.sim.events_processed

        assert run_flow(False) == run_flow(True)
