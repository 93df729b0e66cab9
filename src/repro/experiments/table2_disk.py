"""Table 2 — UDT disk-to-disk performance matrix.

Every (source, destination) pair of the three sites transfers a file
through the modelled disks; throughput lands on min(source read,
destination write, network path) — §5.3's "limited by the disk IO
bottleneck".
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.apps.fileio import DiskTransfer
from repro.experiments.common import ExperimentResult, RunArgs, mbps
from repro.hostmodel.disk import SITE_DISKS, disk_disk_limit
from repro.sim.topology import path_topology

#: (rate, RTT) of the path between each ordered site pair (§5).
PATHS: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("Chicago", "Chicago"): (1e9, 0.0004),
    ("Chicago", "Ottawa"): (622e6, 0.016),
    ("Chicago", "Amsterdam"): (1e9, 0.110),
    ("Ottawa", "Chicago"): (622e6, 0.016),
    ("Ottawa", "Ottawa"): (1e9, 0.0004),
    ("Ottawa", "Amsterdam"): (622e6, 0.126),
    ("Amsterdam", "Chicago"): (1e9, 0.110),
    ("Amsterdam", "Ottawa"): (622e6, 0.126),
    ("Amsterdam", "Amsterdam"): (1e9, 0.0004),
}


def run(
    nbytes: Optional[int] = None,
    seed: int = 0,
    run_args: RunArgs = RunArgs(),
) -> ExperimentResult:
    if nbytes is None:
        nbytes = int(run_args.scaled(400e6, minimum=120e6))
    res = ExperimentResult(
        "table2",
        "UDT disk-disk throughput matrix (Mb/s)",
        ["from \\ to", "Chicago", "Ottawa", "Amsterdam", "expected min()"],
        paper_reference="Table 2 (every entry tracks the disk IO bottleneck)",
        notes=f"file size {nbytes/1e6:.0f} MB; expected = "
        "min(src read, dst write, path) for the slowest column",
    )
    sites = ["Chicago", "Ottawa", "Amsterdam"]
    for src_name in sites:
        row = [src_name]
        expected = []
        for dst_name in sites:
            rate, rtt = PATHS[(src_name, dst_name)]
            top = path_topology(rate, rtt, seed=seed, **run_args.net)
            xfer = DiskTransfer(
                top.net,
                top.src,
                top.dst,
                SITE_DISKS[src_name],
                SITE_DISKS[dst_name],
                nbytes=nbytes,
            )
            limit = disk_disk_limit(SITE_DISKS[src_name], SITE_DISKS[dst_name], rate)
            top.net.run(until=nbytes * 8.0 / limit * 3 + 10)
            thr = xfer.effective_throughput_bps() if xfer.done else 0.0
            row.append(round(mbps(thr), 1))
            expected.append(round(mbps(limit), 1))
        row.append("/".join(str(e) for e in expected))
        res.add(*row)
    return res
