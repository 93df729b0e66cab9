"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Event, Simulator, Timer, format_vtime


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(0.3, seen.append, "c")
    sim.schedule(0.1, seen.append, "a")
    sim.schedule(0.2, seen.append, "b")
    sim.run()
    assert seen == ["a", "b", "c"]


def test_same_time_events_fifo():
    sim = Simulator()
    seen = []
    for tag in range(10):
        sim.schedule(0.5, seen.append, tag)
    sim.run()
    assert seen == list(range(10))


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert sim.now == 10.0
    assert sim.events_processed == 2


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    ev = sim.schedule(0.1, seen.append, "x")
    sim.schedule(0.2, seen.append, "y")
    ev.cancel()
    sim.run()
    assert seen == ["y"]
    assert ev.cancelled


def test_cancel_releases_references():
    sim = Simulator()
    big = object()
    ev = sim.schedule(0.1, lambda o: None, big)
    ev.cancel()
    assert ev.args == ()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_into_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_event_scheduled_during_run_executes():
    sim = Simulator()
    seen = []

    def first():
        sim.schedule(0.5, seen.append, "second")

    sim.schedule(0.1, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == pytest.approx(0.6)


def test_stop_aborts_run():
    sim = Simulator()
    seen = []
    sim.schedule(0.1, seen.append, 1)
    sim.schedule(0.2, sim.stop)
    sim.schedule(0.3, seen.append, 2)
    sim.run()
    assert seen == [1]
    # a second run resumes where we left off
    sim.run()
    assert seen == [1, 2]


def test_stop_inside_run_until_leaves_clock_at_the_stop():
    """``until`` is only reached when the run got there: after ``stop()``
    live entries before ``until`` remain, and jumping past them made the
    next segment run time backwards (now == 10, then now == 2)."""
    sim = Simulator()
    times = []
    sim.schedule(1, sim.stop)
    sim.schedule(2, lambda: times.append(sim.now))
    sim.run(until=10)
    assert sim.now == 1
    assert sim.pending() == 1
    sim.run(until=10)
    assert times == [2]
    assert sim.now == 10


def test_events_processed_is_live_during_run():
    sim = Simulator()
    seen = []
    for _ in range(3):
        sim.post(0.1, lambda: seen.append(sim.events_processed))
    sim.run()
    assert seen == [1, 2, 3]


def test_pending_counts_live_events():
    sim = Simulator()
    ev1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    ev1.cancel()
    assert sim.pending() == 1


def test_rng_is_seeded_and_reproducible():
    a = Simulator(seed=42).rng.random()
    b = Simulator(seed=42).rng.random()
    c = Simulator(seed=43).rng.random()
    assert a == b != c


def test_timer_restart_and_cancel():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.restart(1.0)
    t.restart(2.0)  # supersedes the first deadline
    sim.run()
    assert fired == [2.0]
    assert not t.armed


def test_timer_start_if_idle():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(sim.now))
    t.restart(1.0)
    t.start_if_idle(0.5)  # must NOT override the armed deadline
    assert t.deadline == 1.0
    sim.run()
    assert fired == [1.0]
    t.start_if_idle(0.5)
    sim.run()
    assert fired == [1.0, 1.5]


def test_timer_cancel_prevents_fire():
    sim = Simulator()
    fired = []
    t = Timer(sim, lambda: fired.append(1))
    t.restart(1.0)
    t.cancel()
    sim.run()
    assert fired == []


def test_repr_safe_on_cancelled_event():
    sim = Simulator()
    ev = sim.schedule(0.1, lambda: None)
    assert "pending" in repr(ev)
    ev.cancel()
    # cancel() clears fn/args; repr must still work (debuggers repr the heap)
    assert "cancelled" in repr(ev)
    assert "seq=" in repr(ev)


def test_repr_names_the_handler():
    sim = Simulator()

    def my_handler():
        pass

    ev = sim.schedule(0.1, my_handler)
    assert "my_handler" in repr(ev)


def test_repr_safe_on_garbage_time():
    ev = Event(object(), 0, lambda: None, ())  # type: ignore[arg-type]
    assert "seq=0" in repr(ev)


def test_now_str_formats():
    sim = Simulator()
    assert sim.now_str() == "0.000ms"
    sim.schedule(0.0005, lambda: None)
    sim.run()
    assert sim.now_str() == "0.500ms"
    sim.schedule_at(2.25, lambda: None)
    sim.run()
    assert sim.now_str() == "2.250s"
    assert format_vtime(float("nan")) == "?"


# -- perturbable same-instant tie-break (determinism sanitizer hook) -------


def test_tie_break_fifo_default():
    sim = Simulator()
    assert sim.tie_break == "fifo"
    out = []
    for i in range(5):
        sim.schedule_at(1.0, out.append, i)
    sim.run()
    assert out == [0, 1, 2, 3, 4]


def test_tie_break_lifo_reverses_equal_time_only():
    sim = Simulator(tie_break="lifo")
    out = []
    for i in range(5):
        sim.schedule_at(1.0, out.append, i)
    sim.schedule_at(2.0, out.append, 99)  # later time still fires last
    sim.run()
    assert out == [4, 3, 2, 1, 0, 99]


def test_tie_break_env_override(monkeypatch):
    from repro.sim.engine import TIE_BREAK_ENV

    monkeypatch.setenv(TIE_BREAK_ENV, "lifo")
    assert Simulator().tie_break == "lifo"
    # An explicit argument beats the environment.
    assert Simulator(tie_break="fifo").tie_break == "fifo"


def test_tie_break_rejects_unknown_order():
    import pytest

    with pytest.raises(ValueError):
        Simulator(tie_break="random")


def test_nothing_under_src_patches_the_engine_or_walks_frames():
    """Tooling registers a ``RunObserver`` (DESIGN.md, "Engine seam").

    Replacing ``Simulator.run`` — on the class or on an instance — is how
    two tools used to un-install each other, and digging the loop's
    locals out of ``sys._current_frames()`` is how one of them counted
    events; neither may come back anywhere under ``src/repro``.
    """
    import re
    from pathlib import Path

    import repro

    banned = re.compile(
        r"\.run\s*=[^=]|setattr\([^)]*[\"']run[\"']|_current_frames|f_locals"
    )
    hits = [
        f"{path}:{n}: {line.strip()}"
        for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if banned.search(line)
    ]
    assert hits == []
