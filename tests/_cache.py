"""Seed a sweep cache the way ``repro-udt sweep`` fills it."""

from repro.runner.cache import ResultCache
from repro.runner.digest import experiment_digest


def seed_cache(cache_root, exp_id, result, scale=0.05, fidelity="packet"):
    """Store ``result`` (an ``ExperimentResult`` as a dict) under the
    digest a sweep of ``exp_id`` at ``scale`` would use, with the
    fidelity and ``files`` map a sweep stores beside it; returns the
    digest."""
    digest, files = experiment_digest(exp_id, scale, fidelity=fidelity)
    ResultCache(cache_root).store(
        digest,
        {"exp_id": exp_id, "scale": scale, "seconds": 1.5, "result": result,
         "fidelity": fidelity, "files": files},
    )
    return digest
