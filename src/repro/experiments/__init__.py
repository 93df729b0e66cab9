"""Experiment runners — one per table/figure of the paper, plus ablations.

Every runner returns an :class:`~repro.experiments.common.ExperimentResult`
whose rows mirror the series the paper plots.  ``python -m repro list``
shows the registry, ``repro-udt sweep`` runs them into the result cache,
and ``python -m repro.obs.figures --gate`` checks the paper's claims
(:mod:`repro.obs.claims`) on those rows.
"""

from repro.experiments.registry import REGISTRY, get_experiment, list_experiments

__all__ = ["REGISTRY", "get_experiment", "list_experiments"]
