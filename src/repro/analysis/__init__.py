"""Protocol-invariant static analysis + determinism sanitizer.

The invariants this reproduction leans on — 31-bit wrap-around sequence
arithmetic, a sans-IO protocol core, a machine-checked telemetry schema,
reproducible discrete-event runs — were conventions until this package;
now they are enforced properties.  Five checkers run over ``src/repro``
through a small driver (:mod:`repro.analysis.core`); the dataflow tier
(``seqno-taint``/``units``) is built on the CFG + taint framework in
:mod:`repro.analysis.flow`:

=================== ========================================================
rule                what it enforces
=================== ========================================================
``seqno-taint``     no raw ``<``/``>``/``+``/``-``/``==`` on values
                    *derived from* wrap-around sequence numbers, tracked
                    through locals/attributes/returns (supersedes the
                    syntactic ``seqno-arith`` of PR 3)
``units``           dimensional consistency (s/us/bytes/pkts/pps/bps),
                    seeded from udt/params.py and sim/engine.py
``sansio-purity``   no wall clocks, unseeded RNG, sockets or threads in
                    ``repro/udt/`` and ``repro/sim/``
``event-schema``    every ``bus.emit`` payload and consumer key access
                    matches ``repro/obs/catalog.py``
``vtime-determinism`` no float ``==`` between virtual times; no
                    scheduling out of unordered iteration
=================== ========================================================

The behavioural half: :mod:`repro.analysis.protomodel` statically
extracts a per-flow event-order model from the ``udt/core.py`` handler
structure (committed as ``analysis/protocol_model.json``) and
:mod:`repro.analysis.conformance` checks recorded traces against it
(``repro-udt conform TRACE``).

The runtime half, :class:`repro.analysis.sanitizer.DeterminismSanitizer`,
runs an experiment twice with perturbed same-vtime tie-breaking and hash
seeds and diffs the two traces byte-for-byte.

Entry point: ``repro-udt lint`` (``python -m repro lint``); the
CI gate is zero findings (a deliberate exception is an inline
``# lint: disable=<rule>`` with its reason beside it).  See
docs/ANALYSIS.md for the full rule catalog and suppression syntax.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleContext,
    default_root,
    repo_root,
    run_checkers,
)
from repro.analysis.event_schema import EventSchemaChecker
from repro.analysis.sansio import SansioPurityChecker
from repro.analysis.seqno_taint import SeqnoTaintChecker
from repro.analysis.units import UnitsChecker
from repro.analysis.vtime import VtimeDeterminismChecker


def all_checkers() -> List[Checker]:
    """Fresh instances of every registered checker, in rule order."""
    return [
        SeqnoTaintChecker(),
        UnitsChecker(),
        SansioPurityChecker(),
        EventSchemaChecker(),
        VtimeDeterminismChecker(),
    ]


def rule_ids() -> List[str]:
    return [c.rule for c in all_checkers()]


def run_analysis(
    root=None, rules: Optional[Sequence[str]] = None
) -> List[Finding]:
    """Run all (or selected) checkers over ``root`` (default: src/repro)."""
    from pathlib import Path

    target = Path(root) if root is not None else default_root()
    return run_checkers(target, all_checkers(), rules=rules)


__all__ = [
    "Checker",
    "Finding",
    "ModuleContext",
    "all_checkers",
    "default_root",
    "repo_root",
    "rule_ids",
    "run_analysis",
    "run_checkers",
]
