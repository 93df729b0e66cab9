"""Figure 9 — access time to the loss list.

Replays a Figure 8-style loss trace against the appendix data structure
and times every insert / delete (retransmission arrival) / query in
microseconds.  The paper's claim: accesses complete in ~1 us regardless
of how many packets each congestion event killed.  The naive
one-entry-per-packet list is included as the ablation baseline.
"""

from __future__ import annotations

import random
import time
from typing import List, Optional, Tuple

from repro.experiments.common import ExperimentResult, RunArgs
from repro.udt.losslist import NaiveLossList, ReceiverLossList


def synth_loss_trace(
    n_events: int = 300, max_burst: int = 3000, seed: int = 0
) -> List[Tuple[int, int]]:
    """Loss events shaped like Figure 8: bursts up to thousands of packets."""
    rng = random.Random(seed)
    trace = []
    seq = 0
    for _ in range(n_events):
        seq += rng.randint(1, 500)  # received run
        burst = rng.randint(1, max_burst)
        trace.append((seq, seq + burst - 1))
        seq += burst
    return trace


def time_structure(make, trace) -> dict:
    """Mean/max microseconds for insert, delete, query over the trace."""
    ll = make()
    out = {}
    # inserts
    times = []
    for a, b in trace:
        t0 = time.perf_counter_ns()
        ll.insert(a, b)
        times.append(time.perf_counter_ns() - t0)
    out["insert_mean_us"] = sum(times) / len(times) / 1e3
    out["insert_max_us"] = max(times) / 1e3
    # queries (hit the middle of random events)
    rng = random.Random(1)
    times = []
    for _ in range(len(trace)):
        a, b = trace[rng.randrange(len(trace))]
        probe = (a + b) // 2
        t0 = time.perf_counter_ns()
        ll.contains(probe)
        times.append(time.perf_counter_ns() - t0)
    out["query_mean_us"] = sum(times) / len(times) / 1e3
    # deletes: retransmissions arrive for the first packet of each event
    times = []
    for a, _ in trace:
        t0 = time.perf_counter_ns()
        if isinstance(ll, ReceiverLossList):
            ll.remove(a)
        else:
            ll.remove_upto(a)
        times.append(time.perf_counter_ns() - t0)
    out["delete_mean_us"] = sum(times) / len(times) / 1e3
    return out


def run(
    n_events: int = 300, max_burst: int = 3000, seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    trace = synth_loss_trace(n_events, max_burst, seed)
    total_lost = sum(b - a + 1 for a, b in trace)
    res = ExperimentResult(
        "fig09",
        "Loss-list access time (microseconds)",
        ["structure", "insert mean", "insert max", "query mean", "delete mean"],
        paper_reference="Figure 9 (~1 us per access, independent of loss "
        "volume, on 2.4 GHz Xeons)",
        notes=f"{n_events} loss events, {total_lost} lost packets total; "
        "naive per-packet list shown as the §4.2 ablation",
    )
    for name, make in (
        ("range list (UDT)", ReceiverLossList),
        ("naive per-packet", NaiveLossList),
    ):
        r = time_structure(make, trace)
        res.add(
            name,
            round(r["insert_mean_us"], 2),
            round(r["insert_max_us"], 2),
            round(r["query_mean_us"], 2),
            round(r["delete_mean_us"], 2),
        )
    return res
