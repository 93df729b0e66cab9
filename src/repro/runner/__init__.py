"""Parallel sweep executor with digest-keyed result caching.

The ``repro.runner`` package turns the 25-experiment registry into a
repeatable, cacheable batch workload (see docs/PERFORMANCE.md):

* :mod:`repro.runner.digest` — a stable content hash of everything that
  can change an experiment's output: its registry id, runner keyword
  overrides, the duration scale, and the static import closure of the
  source files the run executes.
* :mod:`repro.runner.cache` — a directory of ``<digest>.json`` entries
  holding the serialised :class:`~repro.experiments.common.ExperimentResult`
  (plus timing metadata); corrupt entries self-heal by deletion.
* :mod:`repro.runner.sweep` — the orchestrator behind
  ``repro-udt sweep --jobs N``: experiments fan out to fresh worker
  interpreters (one subprocess per experiment, so results and traces are
  byte-identical for any ``--jobs`` value), cache hits are skipped, and
  the sweep's timings merge-update ``benchmarks/results/BENCH_runtime.json``.

Worker processes re-enter through ``python -m repro.runner --worker``;
a worker needs none of the orchestrator, so this file imports nothing
and every caller names the submodule it uses.
"""
