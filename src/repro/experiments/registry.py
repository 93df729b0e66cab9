"""Experiment registry: id -> (module, function, description).

The registry is data.  Looking an experiment up, listing them all or
hashing one's sources (:func:`repro.runner.digest.experiment_digest`
starts from ``Experiment.module``) imports no experiment;
``Experiment.runner`` imports the one module it names, on use.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import Callable, Dict, List

from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class Experiment:
    exp_id: str
    module: str  # dotted name of the module holding the runner
    func: str  # the runner's name in that module
    description: str
    paper_artefact: str

    @property
    def runner(self) -> Callable[..., ExperimentResult]:
        return getattr(import_module(self.module), self.func)


REGISTRY: Dict[str, Experiment] = {
    exp_id: Experiment(exp_id, f"{__package__}.{module}", func, description, artefact)
    for exp_id, module, func, description, artefact in (
        ("table1", "table1_increase", "run", "increase parameter computation", "Table 1"),
        ("fig01", "fig01_streaming_join", "run", "streaming join example", "Figure 1/§5.3"),
        ("fig02", "fig02_fairness", "run", "Jain fairness index vs RTT", "Figure 2"),
        ("fig03", "fig03_concurrency", "run", "stddev vs concurrent flows", "Figure 3"),
        ("fig04", "fig04_stability", "run", "stability index vs RTT", "Figure 4"),
        ("fig05", "fig05_friendliness", "run", "TCP friendliness vs RTT", "Figure 5"),
        ("fig06", "fig06_rtt_fairness", "run", "RTT fairness of UDT", "Figure 6"),
        ("fig07", "fig07_flow_control", "run", "flow control on/off", "Figure 7"),
        ("fig08", "fig08_loss_pattern", "run", "loss pattern under congestion", "Figure 8"),
        ("fig09", "fig09_losslist", "run", "loss-list access times", "Figure 9"),
        ("fig11", "fig11_single_flow", "run", "single-flow efficiency", "Figure 11"),
        ("fig12", "fig12_three_flows", "run", "three concurrent flows", "Figure 12"),
        ("fig13", "fig13_short_tcp", "run", "short TCP vs background UDT", "Figure 13"),
        ("fig14", "fig14_cpu", "run", "CPU utilisation", "Figure 14"),
        ("fig15", "fig15_packet_size", "run", "throughput vs packet size", "Figure 15"),
        ("table2", "table2_disk", "run", "disk-disk matrix", "Table 2"),
        ("table3", "table3_breakdown", "run", "CPU per-function breakdown", "Table 3"),
        ("ablation-bwe", "ablations", "run_bwe", "bandwidth estimation ablation", "§3.3-3.4"),
        ("ablation-syn", "ablations", "run_syn", "SYN interval tradeoff", "§3.7"),
        ("ablation-sabul", "ablations", "run_sabul", "UDT vs SABUL", "§2.3/§5.2"),
        (
            "ablation-delay",
            "ablations",
            "run_delay",
            "obsolete delay-trend design vs loss-only",
            "§6",
        ),
        (
            "ablation-control-channel",
            "ablations",
            "run_control_channel",
            "UDP vs TCP-like control channel",
            "§2.3/§6",
        ),
        (
            "ablation-parallel-tcp",
            "ablation_parallel_tcp",
            "run",
            "parallel TCP striping vs one UDT flow",
            "§2.2",
        ),
        (
            "ablation-queueing",
            "ablation_queueing",
            "run",
            "queue provisioning: TCP sensitive, UDT not",
            "§3.7 footnote",
        ),
        (
            "ablation-multibottleneck",
            "ablations",
            "run_multibottleneck",
            "max-min share on parking lot",
            "§3.4 footnote",
        ),
    )
}


def get_experiment(exp_id: str) -> Experiment:
    if exp_id not in REGISTRY:
        raise KeyError(
            f"unknown experiment {exp_id!r}; known: {', '.join(sorted(REGISTRY))}"
        )
    return REGISTRY[exp_id]


def list_experiments() -> List[Experiment]:
    return list(REGISTRY.values())
