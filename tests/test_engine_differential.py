"""The live engine against the frozen pre-stream engine, event for event.

``Simulator.post_fifo`` parks a stream's later entries outside the heap;
the claim is that nothing observable moves: the same handlers fire at the
same times in the same order under both tie-breaks, ``events_processed``,
``now`` and ``pending()`` agree wherever a run can be cut, and ``stop()``,
a raising handler and ``run(until)`` leave every stream consistent.  The
oracle (tests/_reference_engine.py) has no streams: a stream post is a
plain ``post`` there, which is what the live engine must be
indistinguishable from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import bus as OB
from repro.sim import engine as live
from repro.sim.engine import TIE_BREAKS
from tests import _reference_engine as frozen
from tests.test_udt_fastpath import _clean

N_STREAMS = 3
N_TIMERS = 2

# Dyadic, so every time is exact and ties are common.  A stream post from a
# later handler with a smaller delay lands at or before its stream's tail:
# the fail-closed arm.
DELAYS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
INDEX = st.integers(0, 7)
# What a firing handler does next: how many actions it takes off the tape.
FANOUT = st.integers(0, 3)

FIFO = st.tuples(st.just("fifo"), st.integers(0, N_STREAMS - 1), DELAYS, FANOUT)
ACTION = st.one_of(
    FIFO,
    FIFO,  # twice: stream posts are the subject
    st.tuples(st.just("post"), DELAYS, FANOUT),
    st.tuples(st.just("post_at"), DELAYS, FANOUT),
    st.tuples(st.just("schedule"), DELAYS, FANOUT),
    st.tuples(st.just("schedule_at"), DELAYS, FANOUT),
    st.tuples(st.just("cancel"), INDEX),
    st.tuples(st.just("timer_restart"), st.integers(0, N_TIMERS - 1), DELAYS),
    st.tuples(st.just("timer_cancel"), st.integers(0, N_TIMERS - 1)),
    st.tuples(st.just("stop")),
    st.tuples(st.just("raise")),
)

PROGRAM = st.tuples(
    st.integers(1, 12),  # actions taken before the first run
    st.lists(ACTION, min_size=1, max_size=80),  # the tape
    st.lists(DELAYS, max_size=6),  # run(until=...) slice lengths
)


class Boom(Exception):
    pass


def check_streams(sim):
    """The head-in-heap invariant, and each stream sorted strictly."""
    heads = {id(e) for e in sim._heap if len(e) == 5}
    assert heads == {id(s[0]) for s in sim._streams if s}
    for stream in sim._streams:
        times = [e[0] for e in stream]
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(e[4] is stream for e in stream)


def execute(engine, program, tie_break):
    """Run ``program`` on ``engine``; what an observer could have seen."""
    setup, tape, slices = program
    sim = engine.Simulator(tie_break=tie_break)
    streams = (
        [sim.fifo_stream() for _ in range(N_STREAMS)] if engine is live else None
    )
    log = []
    handles = []
    cursor = iter(enumerate(tape))

    def fire(label, fanout):
        log.append((sim.now, label))
        perform(fanout)

    timers = [
        engine.Timer(sim, lambda i=i: fire(("timer", i), 1)) for i in range(N_TIMERS)
    ]

    def perform(count):
        for _ in range(count):
            label, action = next(cursor, (None, None))
            if action is None:
                return
            kind = action[0]
            if kind == "fifo":
                _, s, delay, fanout = action
                if streams is None:
                    sim.post(delay, fire, label, fanout)
                else:
                    sim.post_fifo(streams[s], delay, fire, label, fanout)
            elif kind == "post":
                sim.post(action[1], fire, label, action[2])
            elif kind == "post_at":
                sim.post_at(sim.now + action[1], fire, label, action[2])
            elif kind == "schedule":
                handles.append(sim.schedule(action[1], fire, label, action[2]))
            elif kind == "schedule_at":
                handles.append(
                    sim.schedule_at(sim.now + action[1], fire, label, action[2])
                )
            elif kind == "cancel":
                if handles:
                    handles[action[1] % len(handles)].cancel()
            elif kind == "timer_restart":
                timers[action[1]].restart(action[2])
            elif kind == "timer_cancel":
                timers[action[1]].cancel()
            elif kind == "stop":
                sim.stop()
            else:
                raise Boom(label)

    seen = []

    def run(until):
        try:
            sim.run(until=until)
        except Boom as exc:
            log.append(("boom", exc.args[0]))
        if streams is not None:
            check_streams(sim)
        seen.append((list(log), sim.events_processed, sim.now, sim.pending()))

    try:
        perform(setup)
    except Boom:
        pass
    until = 0.0
    for length in slices:
        until += length
        run(until)
    # Drain: a stop() or a raise ends one run() call, not the program.
    for _ in range(len(tape) + 1):
        run(None)
        if not sim.pending():
            break
    assert not sim.pending()
    return seen


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
@settings(max_examples=400, deadline=None)
@given(program=PROGRAM)
def test_dispatch_is_the_frozen_engines(tie_break, program):
    assert execute(live, program, tie_break) == execute(frozen, program, tie_break)


@pytest.mark.parametrize("tie_break", TIE_BREAKS)
def test_equal_and_decreasing_stream_posts_fail_closed(tie_break):
    """The arms the property test must not merely stumble on: a post at,
    or before, the stream's tail goes to the heap as ``post`` would."""
    program = (
        6,
        [
            ("fifo", 0, 1.0, 0),  # head
            ("fifo", 0, 2.0, 0),  # parked
            ("fifo", 0, 2.0, 0),  # equal to the tail: alone on the heap
            ("fifo", 0, 1.5, 0),  # before the tail: alone on the heap
            ("fifo", 0, 1.0, 0),  # equal to the head
            ("fifo", 0, 3.0, 1),  # parked again, behind the unchanged tail
            ("fifo", 0, 0.0, 0),  # posted by a handler into its own, empty stream
        ],
        [1.0, 1.0],
    )
    got = execute(live, program, tie_break)
    assert got == execute(frozen, program, tie_break)
    labels = [label for _, label in got[-1][0]]
    assert labels == (
        [0, 4, 3, 1, 2, 5, 6] if tie_break == "fifo" else [4, 0, 3, 2, 1, 5, 6]
    )

    sim = live.Simulator(tie_break=tie_break)
    stream = sim.fifo_stream()
    for delay in (1.0, 2.0, 2.0, 1.5, 1.0, 3.0):
        sim.post_fifo(stream, delay, lambda: None)
    assert sorted(len(e) for e in sim._heap) == [4, 4, 4, 5]
    assert [e[0] for e in stream] == [1.0, 2.0, 3.0]
    assert sim.pending() == 6


def test_hybrid_spans_start_with_empty_pipes_and_the_frozen_pending(monkeypatch):
    """``FluidController._quiet_check`` compares ``pending()`` with the
    sources' own events: a packet parked in a pipe must veto a span exactly
    as a heap entry did.  The udt_clean scenario under the hybrid tier, cut
    into slices, on both engines: the same ``pending()`` at every boundary,
    the same spans, and no link with a packet in flight at any
    ``fluid.enter``."""

    class FrozenSimulator(frozen.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.bus = OB.EventBus()

        def fifo_stream(self):
            return ()

        def post_fifo(self, stream, delay, fn, *args):
            self.post(delay, fn, *args)

    monkeypatch.setenv("REPRO_FIDELITY", "hybrid")
    duration, slices = 12.0, 96

    def observe(simulator):
        monkeypatch.setattr("repro.sim.topology.Simulator", simulator)
        net, _ = _clean(seed=1)
        sim = net.sim
        in_flight_at_enter = []
        sim.bus.subscribe(
            lambda *_: in_flight_at_enter.append(
                sum(len(link._pipe) for link in net.links.values())
            ),
            kinds=(OB.FLUID_ENTER,),
        )
        net.fluid.on_run(duration)
        seen = []
        for k in range(1, slices + 1):
            sim.run(until=duration * k / slices)
            seen.append((sim.now, sim.events_processed, sim.pending()))
        return seen, net.fluid.spans, in_flight_at_enter

    got = observe(live.Simulator)
    assert got == observe(FrozenSimulator)
    seen, spans, in_flight_at_enter = got
    assert spans == 3 and in_flight_at_enter == [0, 0, 0]
    assert max(pending for _, _, pending in seen) > 1000
