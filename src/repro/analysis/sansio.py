"""sansio-purity: the protocol core and simulator touch no wall clocks.

The discrete-event reproduction is trustworthy for the same reason NS-2
figures are: a run is a pure function of (code, seed, parameters).  That
only holds if simulated components get *time* exclusively from the
engine (``Simulator.now`` / scheduler callbacks) and *randomness*
exclusively from the simulation-owned, seeded ``Simulator.rng``.  One
``time.time()`` in a protocol path silently couples results to the host;
one module-level ``random.random()`` couples them to interpreter-global
state shared across experiments.

Flagged inside ``repro/udt/`` and ``repro/sim/``:

* imports of ``socket`` or ``threading`` (real I/O and real concurrency
  belong in ``repro/live/``, the explicitly wall-clock half);
* imports of wall-clock time sources (``import time``,
  ``from time import time/perf_counter/monotonic/...``) and calls to
  ``time.time()``, ``time.perf_counter()``, ``time.monotonic()``,
  ``time.sleep()`` and ``datetime.now()``/``datetime.utcnow()``;
* ``os`` time sources (``os.times``);
* *unseeded* randomness: module-level ``random.random()`` etc. (the
  interpreter-global RNG) and ``random.Random()`` constructed with no
  seed argument.  ``random.Random(seed)`` is fine — that is the pattern
  the engine itself uses.

Allowlist: ``sim/engine.py`` may use ``perf_counter`` — the timed branch
of ``Simulator.run`` deliberately measures wall time and never feeds it
back into virtual time.  ``repro/obs/prof.py`` and ``repro/live/``
are outside this rule's scope entirely.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List

from repro.analysis.core import Checker, Finding, ModuleContext

RULE = "sansio-purity"

_FORBIDDEN_MODULES = {
    "socket": "real sockets belong in repro/live/",
    "threading": "real concurrency belongs in repro/live/",
}

#: attributes of the ``time`` module that read the wall clock (or stall
#: on it); importing any of them into the sans-IO core is a finding.
_TIME_SOURCES = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
        "clock",
        "sleep",
    }
)

#: ``random`` module-level functions = the interpreter-global RNG.
_GLOBAL_RNG_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "gauss",
        "expovariate",
        "betavariate",
        "normalvariate",
        "seed",
        "getrandbits",
    }
)

_OS_TIME_SOURCES = frozenset({"times"})

#: per-file exemptions: relpath -> names allowed despite the rule.
_ALLOWLIST: Dict[str, frozenset] = {
    # The timed branch of Simulator.run measures handler wall time; it
    # never feeds virtual time, so it is the one sanctioned wall-clock user.
    "sim/engine.py": frozenset({"perf_counter", "perf_counter_ns"}),
}


class SansioPurityChecker(Checker):
    rule = RULE
    description = (
        "no wall clocks, unseeded randomness, sockets or threads inside "
        "repro/udt/ and repro/sim/ (time comes from the engine, "
        "randomness from Simulator.rng)"
    )

    def interested(self, ctx: ModuleContext) -> bool:
        rp = ctx.relpath
        return rp.startswith("udt/") or rp.startswith("sim/")

    def _allowed(self, ctx: ModuleContext, name: str) -> bool:
        return name in _ALLOWLIST.get(ctx.relpath, frozenset())

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []

        def flag(node: ast.AST, message: str) -> None:
            findings.append(ctx.finding(RULE, node, message))

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _FORBIDDEN_MODULES:
                        flag(
                            node,
                            f"import of {alias.name!r} in the sans-IO core: "
                            f"{_FORBIDDEN_MODULES[top]}",
                        )
                    elif top == "time" and not self._allowed(ctx, "time"):
                        flag(
                            node,
                            "import of 'time' in the sans-IO core: simulated "
                            "components must take time from the engine "
                            "(Simulator.now), never the wall clock",
                        )
            elif isinstance(node, ast.ImportFrom):
                mod = (node.module or "").split(".")[0]
                if mod in _FORBIDDEN_MODULES:
                    flag(
                        node,
                        f"import from {node.module!r} in the sans-IO core: "
                        f"{_FORBIDDEN_MODULES[mod]}",
                    )
                elif mod == "time":
                    for alias in node.names:
                        if alias.name in _TIME_SOURCES and not self._allowed(
                            ctx, alias.name
                        ):
                            flag(
                                node,
                                f"import of wall-clock source "
                                f"'time.{alias.name}' in the sans-IO core; "
                                "use engine virtual time",
                            )
                elif mod == "random":
                    for alias in node.names:
                        if alias.name in _GLOBAL_RNG_FNS:
                            flag(
                                node,
                                f"import of global-RNG function "
                                f"'random.{alias.name}'; draw from the "
                                "seeded Simulator.rng instead",
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if not isinstance(func, ast.Attribute):
                    continue
                base = func.value
                if not isinstance(base, ast.Name):
                    continue
                if base.id == "time" and func.attr in _TIME_SOURCES:
                    if not self._allowed(ctx, func.attr):
                        flag(
                            node,
                            f"wall-clock call time.{func.attr}() in the "
                            "sans-IO core; use engine virtual time",
                        )
                elif base.id == "random":
                    if func.attr in _GLOBAL_RNG_FNS:
                        flag(
                            node,
                            f"global-RNG call random.{func.attr}(); draw "
                            "from the seeded Simulator.rng instead",
                        )
                    elif func.attr == "Random" and not (
                        node.args or node.keywords
                    ):
                        flag(
                            node,
                            "unseeded random.Random(): pass an explicit "
                            "seed (or share Simulator.rng) so runs are "
                            "reproducible",
                        )
                elif base.id == "os" and func.attr in _OS_TIME_SOURCES:
                    flag(
                        node,
                        f"os time source os.{func.attr}() in the sans-IO "
                        "core; use engine virtual time",
                    )
                elif base.id == "datetime" and func.attr in ("now", "utcnow", "today"):
                    flag(
                        node,
                        f"wall-clock call datetime.{func.attr}() in the "
                        "sans-IO core; use engine virtual time",
                    )
        return findings
