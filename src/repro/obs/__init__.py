"""Unified telemetry: event bus, CC timelines, JSONL export.

``repro.obs`` is the observability substrate shared by the simulator,
the UDT protocol core, and the host cost models.  Design rules:

* **Zero-dependency, near-zero cost off.**  Every instrumentation point
  in hot code is guarded by ``bus.enabled`` (a plain attribute) so that
  with no subscriber attached the only cost is one attribute load and a
  branch — cheap enough to leave compiled in everywhere (Narses-style).
* **One bus per simulation.**  A ``Simulator`` owns the bus everything
  built on it emits on (a ``repro.live`` endpoint's core owns its own).
  A trace session joins each run's bus through the engine's
  ``RunObserver`` seam, the one process-wide hook, so it records every
  simulation in its block and two simulations never share a stream.
* **Typed, timestamped events.**  Event kinds are dotted strings
  (``cc.sample``, ``link.drop``, ...; see :mod:`repro.obs.bus`), each
  with a documented field set (docs/OBSERVABILITY.md).
* **Replayable.**  The qlog-inspired JSONL export round-trips: a
  :class:`~repro.obs.timeline.TimelineRecorder` rebuilt from a trace
  file reproduces the in-memory per-connection timelines exactly.
* **Imports point one way.**  The simulator and protocol core load
  :mod:`repro.obs.bus` and nothing else from here; every consumer
  (export, store, timeline, spans, report, figures, profiler) attaches
  from outside and is imported by its own module name.  This file
  therefore imports nothing (DESIGN.md, "Dependency direction").
"""
