"""Benchmark harness plumbing.

Each benchmark regenerates one paper artefact through its experiment
runner (``rounds=1`` — these are workload reproductions, not
micro-timings), prints the same rows/series the paper reports, saves them
under ``benchmarks/results/`` and asserts the paper's *shape*: who wins,
by roughly what factor, where the crossovers are.

Wall-clock is not recorded here: the runtime ledger
(``benchmarks/results/BENCH_runtime.json``) has one producer,
``repro-udt sweep``, which times each experiment at a named scale
(docs/PERFORMANCE.md).
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture
def record_result():
    """Print an ExperimentResult and persist it under benchmarks/results."""

    def _record(result):
        text = result.to_text()
        print("\n" + text)
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{result.exp_id}.txt").write_text(text + "\n")
        return result

    return _record


def run_once(benchmark, fn, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
