"""Span tracer for the traced run: timing wrappers at the layer boundaries.

Installed for the length of one repetition and removed afterwards; no
file under ``src/`` knows about it.  Three kinds of wrapper:

* around the public functions through which one layer calls another
  (:data:`METHODS`, :data:`FUNCTIONS`);
* around every callback the engine dispatches — ``Simulator.schedule`` /
  ``schedule_at`` / ``post`` / ``post_at`` (and the live timer thread's
  ``call_at``) hand the engine a span-wrapped trampoline in place of the
  callback, which charges it to the layer whose module defines it;
* around ``Simulator.run`` as the root.

Each span has a name, start, end and parent.  Every span is aggregated
into its layer's ``calls`` and ``self_s`` (duration minus the part child
spans cover); only the first :data:`KEEP_SPANS` are kept individually —
a repetition makes several million, which do not fit in memory — and
written out when the repetition ends.  The wrappers' own cost lands in
the self time of the span around them, so ``self_s`` is comparable
between commits, not an estimate of untraced cost; ``trace.span_ns``
reports the cost per span so a reader can discount it.
"""

from __future__ import annotations

import importlib
import itertools
import json
from functools import partial
from pathlib import Path
from threading import get_ident
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The layers, named after the modules.  ``other`` takes engine callbacks
#: defined outside them (cross-traffic generators, flow glue) so that the
#: layers' self times always add up to the root spans.
LAYERS = (
    "sim.engine", "sim.link", "sim.queues", "sim.node", "sim.udp", "sim.fluid",
    "udt.core", "udt.cc", "udt.losslist", "udt.nakcodec", "udt.buffers",
    "udt.packets", "tcp.agent", "tcp.scoreboard", "obs.bus", "obs.store",
    "live.transport", "live.clock", "runner", "other",
)
_INDEX = {name: i for i, name in enumerate(LAYERS)}
_OTHER = _INDEX["other"]

KEEP_SPANS = 20000

#: (module, class, public methods) wrapped as spans of the module's layer.
METHODS = (
    ("repro.sim.engine", "Simulator", ("run",)),
    ("repro.sim.link", "Link", ("send",)),
    ("repro.sim.queues", "DropTailQueue", ("push", "pop")),
    ("repro.sim.queues", "REDQueue", ("push",)),
    ("repro.sim.node", "Node", ("send", "receive")),
    ("repro.sim.node", "Host", ("receive",)),
    ("repro.sim.node", "Router", ("receive",)),
    ("repro.sim.udp", "UdpEndpoint", ("sendto",)),
    ("repro.sim.fluid", "FluidController", ("on_run",)),
    ("repro.udt.core", "UdtCore", ("on_datagram", "send")),
    ("repro.udt.cc", "UdtNativeCC", ("on_ack", "on_loss", "on_timeout", "fluid_tick")),
    ("repro.udt.losslist", "SenderLossList",
     ("insert", "remove_upto", "pop", "peek", "contains")),
    ("repro.udt.losslist", "ReceiverLossList",
     ("insert", "remove", "remove_upto", "first", "contains", "ranges",
      "expired_ranges")),
    ("repro.udt.buffers", "SendBuffer", ("add", "packetise", "lookup", "ack_upto")),
    ("repro.udt.buffers", "ReceiveBuffer",
     ("on_data", "accepts", "app_read", "post_user_buffer")),
    ("repro.udt.packets", "DataPacket", ("encode",)),
    ("repro.udt.packets", "ControlPacket", ("encode",)),
    ("repro.tcp.scoreboard", "Scoreboard",
     ("add_sack", "update_lost", "next_lost_to_retransmit", "on_retransmit",
      "re_mark_lost", "ack_upto", "clear", "pipe", "highest_sacked",
      "mark_lost_range")),
    ("repro.obs.bus", "EventBus", ("emit",)),
    ("repro.obs.store", "RtrcWriter", ("on_event",)),
    ("repro.live.transport", "LiveUdtEndpoint", ("send", "recv_exactly")),
)

#: (module, function, [(module, alias) that imported it by name]).
FUNCTIONS = (
    ("repro.udt.packets", "decode", ()),
    ("repro.udt.nakcodec", "encode", (("repro.udt.core", "nak_encode"),)),
    ("repro.udt.nakcodec", "decode", (("repro.udt.core", "nak_decode"),)),
    ("repro.live.clock", "wait_until", ()),
)


def layer_of_module(module: str) -> int:
    if module.startswith("repro.runner"):
        return _INDEX["runner"]
    return _INDEX.get(module.removeprefix("repro."), _OTHER)


class _ThreadState:
    """One thread's span stack and totals (merged by ``summary``)."""

    __slots__ = ("stack", "self_s", "calls", "root_s")

    def __init__(self) -> None:
        # Alternating [span id, child seconds] for each open span.
        self.stack: List[Any] = []
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.root_s = 0.0


def _call(fn, *args):
    return fn(*args)


class Tracer:
    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.cancels = 0
        self._states: Dict[int, _ThreadState] = {}
        self._ids = itertools.count()
        self._patched: List[Tuple[Any, str, Any]] = []
        # callback code object -> trampoline; every span wrapper shares one
        # code object, mapped to None so a wrapper is never wrapped twice.
        self._trampolines: Dict[Any, Optional[Callable]] = {
            self.wrap(0, "", _call).__code__: None
        }

    # -- the span ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        st = self._states.get(get_ident())
        if st is None:
            st = self._states[get_ident()] = _ThreadState()
        return st

    def wrap(self, layer: int, name: str, fn: Callable) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        states, new_state = self._states, self._state
        ids, spans, keep = self._ids, self.spans, self.keep
        clock, ident = perf_counter, get_ident

        def wrapper(*args, **kwargs):
            st = states.get(ident()) or new_state()
            stack = st.stack
            sid = next(ids)
            stack.append(sid)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                child = stack.pop()
                stack.pop()
                st.self_s[layer] += dur - child
                st.calls[layer] += 1
                if stack:
                    stack[-1] += dur
                    parent = stack[-2]
                else:
                    st.root_s += dur
                    parent = -1
                if sid < keep:
                    spans.append((sid, parent, name, t0, t1))

        return wrapper

    def _trampoline(self, fn: Callable) -> Optional[Callable]:
        """``tramp(fn, *args)`` runs ``fn`` as a span of the layer whose
        module defines it; None when ``fn`` is a span wrapper already."""
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", func)
        try:
            return self._trampolines[key]
        except KeyError:
            tramp = self._trampolines[key] = self.wrap(
                layer_of_module(getattr(func, "__module__", None) or ""),
                getattr(func, "__qualname__", type(func).__name__),
                _call,
            )
            return tramp

    # -- install / uninstall -------------------------------------------------
    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            layer = layer_of_module(module)
            for m in methods:
                self._patch(cls, m, self.wrap(layer, f"{cls_name}.{m}", cls.__dict__[m]))
        for module, fn_name, aliases in FUNCTIONS:
            mod = importlib.import_module(module)
            wrapped = self.wrap(
                layer_of_module(module),
                f"{module.removeprefix('repro.')}.{fn_name}",
                getattr(mod, fn_name),
            )
            self._patch(mod, fn_name, wrapped)
            for alias_module, alias in aliases:
                self._patch(importlib.import_module(alias_module), alias, wrapped)
        self._install_cancel_count()
        self._install_schedulers()
        self._install_bind()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _install_cancel_count(self) -> None:
        from repro.sim.engine import Event

        orig = Event.__dict__["cancel"]
        tracer = self

        def cancel(ev):
            tracer.cancels += 1
            orig(ev)

        self._patch(
            Event, "cancel", self.wrap(_INDEX["sim.engine"], "Event.cancel", cancel)
        )

    def _install_schedulers(self) -> None:
        """Hand the schedulers a trampoline in place of each callback."""
        from repro.live.transport import _ThreadScheduler
        from repro.sim.engine import Simulator

        trampoline = self._trampoline

        def substituting(orig):
            def schedule(sim, when, fn, *args):
                tramp = trampoline(fn)
                if tramp is None:
                    return orig(sim, when, fn, *args)
                return orig(sim, when, tramp, fn, *args)

            return schedule

        engine = _INDEX["sim.engine"]
        for m in ("schedule", "schedule_at", "post", "post_at"):
            orig = Simulator.__dict__[m]
            self._patch(
                Simulator, m, self.wrap(engine, f"Simulator.{m}", substituting(orig))
            )

        call_at = _ThreadScheduler.__dict__["call_at"]

        def traced_call_at(sched, when, fn):
            tramp = trampoline(fn)
            return call_at(sched, when, fn if tramp is None else partial(tramp, fn))

        self._patch(_ThreadScheduler, "call_at", traced_call_at)

    def _install_bind(self) -> None:
        """Port handlers are where a host hands packets to a transport."""
        from repro.sim.node import Host

        bind = Host.__dict__["bind"]
        trampoline = self._trampoline

        def traced_bind(host, port, handler):
            tramp = trampoline(handler)
            bind(host, port, handler if tramp is None else partial(tramp, handler))

        self._patch(Host, "bind", traced_bind)

    # -- results -----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        root_s = 0.0
        for st in self._states.values():
            root_s += st.root_s
            for i in range(len(LAYERS)):
                self_s[i] += st.self_s[i]
                calls[i] += st.calls[i]
        return {
            "layers": {
                name: {"self_s": self_s[i], "calls": calls[i]}
                for i, name in enumerate(LAYERS)
            },
            "root_s": root_s,
            "cancels": self.cancels,
            "spans_total": sum(calls),
            "spans_kept": len(self.spans),
        }

    def write(self, path: Path, workload: str, seed: int) -> None:
        spans = sorted(self.spans)
        origin = min((s[3] for s in spans), default=0.0)
        doc = dict(self.summary(), workload=workload, seed=seed)
        doc["spans"] = [
            {"id": sid, "parent": parent, "name": name,
             "start": t0 - origin, "end": t1 - origin}
            for sid, parent, name, t0, t1 in spans
        ]
        path.write_text(json.dumps(doc))


def span_cost_ns(n: int = 100000) -> float:
    """Host ns one span adds to the span around it (calibration)."""
    bare = lambda: None  # noqa: E731
    spanned = Tracer(keep=0).wrap(_OTHER, "calibrate", bare)
    t0 = perf_counter()
    for _ in range(n):
        bare()
    t1 = perf_counter()
    for _ in range(n):
        spanned()
    t2 = perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n * 1e9
