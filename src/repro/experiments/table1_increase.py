"""Table 1 — UDT increase-parameter computation (formula (1))."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, RunArgs
from repro.udt.cc import increase_param

#: The published table (B band in Mb/s -> inc in packets, MSS=1500).
PAPER_TABLE_1 = [
    ("1000 < B <= 10000", 10000.0, 10.0),
    ("100 < B <= 1000", 1000.0, 1.0),
    ("10 < B <= 100", 100.0, 0.1),
    ("1 < B <= 10", 10.0, 0.01),
    ("0.1 < B <= 1", 1.0, 0.001),
    ("B <= 0.1", 0.1, 0.00067),
]


def run(mss: int = 1500, run_args: RunArgs = RunArgs()) -> ExperimentResult:
    res = ExperimentResult(
        "table1",
        "UDT increase parameter vs estimated available bandwidth",
        ["B band (Mb/s)", "inc (paper)", "inc (ours)", "match"],
        paper_reference="Table 1",
        notes=f"MSS={mss}; paper floor 0.00067 = 1/1500 packets",
    )
    for label, b_mbps, paper_inc in PAPER_TABLE_1:
        ours = increase_param(b_mbps * 1e6, mss)
        match = abs(ours - paper_inc) / paper_inc < 0.01
        res.add(label, paper_inc, round(ours, 6), "yes" if match else "NO")
    return res
