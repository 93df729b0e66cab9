"""units: dimensional consistency of seconds/bytes/packets/rates.

The protocol code mixes quantities whose types are all ``float``/``int``
but whose *dimensions* differ: SYN intervals (seconds), RTT samples that
arrive in microseconds on the wire, window sizes (packets), payload
sizes (bytes) and rates (packets/s, bits/s).  A classic reproduction bug
is adding an RTT in microseconds to a SYN in seconds, or comparing a
window in packets against a buffer in bytes — silently wrong by 10^6 and
dimensionally meaningless respectively.

Built on :mod:`repro.analysis.flow`, this rule assigns each expression a
unit label drawn from ``{s, us, bytes, bits, pkts, pps, bps}``:

* **seeds** — the machine-read ``PARAM_UNITS`` table in
  :mod:`repro.udt.params` (exact identifier names) plus conservative
  suffix heuristics (``*_us`` -> us, ``*_bps`` -> bps, ``*period`` -> s,
  ``*window`` -> pkts, ...), and the scheduling-API annotations in
  :data:`repro.sim.engine.API_UNITS` (``now()`` returns seconds;
  ``call_at``/``schedule_at``/``post_at`` take seconds first,
  ``post_fifo`` second, after its stream).
* **algebra** — add/sub/compare of two *known, different* units is
  flagged (the result otherwise keeps the common unit); multiply/divide
  resolve through a small dimensional table (pps x s -> pkts,
  bps x s -> bits, pkts / s -> pps, 1 / s -> pps, x / x -> unitless) and
  are otherwise *unknown* — a bare numeric factor may be a unit
  conversion (``rtt_us / 1e6``), so constants never launder a unit
  through multiplication.
* **telemetry cross-check** — at ``bus.emit`` sites, a keyword whose
  expression has a known unit must match the ``units`` annotation of
  that key in :mod:`repro.obs.catalog`.

Unknown stays unknown: the rule only ever flags when *both* sides are
confidently single-unit, so partial seeding cannot produce noise.

Scope: ``repro/udt/`` and ``repro/sabul/``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.analysis.core import Checker, Finding, ModuleContext
from repro.analysis.flow import State, TaintTracker, iter_functions

RULE = "units"

#: the unit alphabet (labels); anything else is "unknown" (empty set).
UNITS = ("s", "us", "bytes", "bits", "pkts", "pps", "bps")

#: suffix/name heuristics, tried after the exact PARAM_UNITS table.
#: Ordering matters: first match wins.
_SUFFIX_RULES: Tuple[Tuple[str, str], ...] = (
    ("_bps", "bps"),
    ("_us", "us"),
    ("_bytes", "bytes"),
    ("_pkts", "pkts"),
    ("_packets", "pkts"),
    ("period", "s"),
    ("_time", "s"),
    ("_until", "s"),
    ("_timeout", "s"),
    ("_rtt", "s"),
    ("window", "pkts"),
    ("cwnd", "pkts"),
    ("_rate", "pps"),
    ("_speed", "pps"),
    ("_size", "bytes"),
)

#: exact names recognised everywhere (beyond PARAM_UNITS).
_EXACT_NAMES: Dict[str, str] = {
    "rtt": "s",
    "rtt_var": "s",
    "now": "s",
    "duration": "s",
    "elapsed": "s",
    "interval": "s",
    "bandwidth": "pps",
    "capacity": "pps",
    "speed": "pps",
    "recv_rate": "pps",
    "size": "bytes",
    "nbytes": "bytes",
    "wire_size": "bytes",
    "rate_bps": "bps",
}

#: dimensional products: (a, b) -> a*b, symmetric.
_MULT_TABLE: Dict[Tuple[str, str], str] = {
    ("pps", "s"): "pkts",
    ("bps", "s"): "bits",
}

#: dimensional quotients: (num, den) -> num/den.
_DIV_TABLE: Dict[Tuple[str, str], str] = {
    ("pkts", "s"): "pps",
    ("bits", "s"): "bps",
    ("pkts", "pps"): "s",
    ("bits", "bps"): "s",
}

_FLAGGED_CMPOPS = (ast.Lt, ast.Gt, ast.LtE, ast.GtE, ast.Eq, ast.NotEq)


def _seed_tables() -> Dict[str, str]:
    from repro.udt.params import PARAM_UNITS

    table = dict(_EXACT_NAMES)
    table.update(PARAM_UNITS)
    return table


def _api_units() -> Dict[str, Dict[str, str]]:
    from repro.sim.engine import API_UNITS

    return API_UNITS


def _name_unit(name: str, exact: Dict[str, str]) -> Optional[str]:
    unit = exact.get(name)
    if unit is not None:
        return unit
    low = name.lower()
    for suffix, u in _SUFFIX_RULES:
        if low.endswith(suffix):
            return u
    return None


def _single(labels: FrozenSet[str]) -> Optional[str]:
    """The unit, when the expression is confidently single-unit."""
    if len(labels) == 1:
        return next(iter(labels))
    return None


class _UnitTracker(TaintTracker):
    """Unit labels as taint; multi-label states decay to unknown."""

    def __init__(self, exact: Dict[str, str], api: Dict[str, Dict[str, str]]):
        self._exact = exact
        self._api = api

    def atom_labels(self, node: ast.AST, state: State) -> FrozenSet[str]:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return frozenset()
        unit = _name_unit(name, self._exact)
        return frozenset({unit}) if unit is not None else frozenset()

    def call_labels(
        self, node: ast.Call, arg_labels: List[FrozenSet[str]], state: State
    ) -> FrozenSet[str]:
        name = None
        if isinstance(node.func, ast.Name):
            name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        spec = self._api.get(name) if name is not None else None
        if spec is not None and "returns" in spec:
            return frozenset({spec["returns"]})
        return frozenset()

    def binop_labels(
        self, node: ast.BinOp, left: FrozenSet[str], right: FrozenSet[str]
    ) -> FrozenSet[str]:
        lu, ru = _single(left), _single(right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            # A known unit survives addition with an unknown/constant term;
            # mixed known units are the rule's finding (flagged separately,
            # in the statement pass) and keep the union so the conflict is
            # visible downstream as "not single-unit" (no cascade flags).
            return left | right
        if isinstance(node.op, ast.Mult):
            if lu is not None and ru is not None:
                out = _MULT_TABLE.get((lu, ru)) or _MULT_TABLE.get((ru, lu))
                if out is not None:
                    return frozenset({out})
            return frozenset()
        if isinstance(node.op, ast.Div):
            if lu is not None and ru is not None:
                if lu == ru:
                    return frozenset()  # dimensionless ratio
                out = _DIV_TABLE.get((lu, ru))
                if out is not None:
                    return frozenset({out})
                return frozenset()
            # The 1/period idiom: a bare constant over seconds is a rate.
            if (
                lu is None
                and isinstance(node.left, ast.Constant)
                and ru == "s"
            ):
                return frozenset({"pps"})
            return frozenset()
        # %, //, **, bit ops...: dimensionally opaque.
        return frozenset()


class UnitsChecker(Checker):
    rule = RULE
    description = (
        "dimensional consistency: seconds vs bytes vs packets vs rates, "
        "seeded from udt/params.py PARAM_UNITS and sim/engine.py API_UNITS"
    )

    def __init__(self) -> None:
        self._exact = _seed_tables()
        self._api = _api_units()
        from repro.obs.catalog import CATALOG

        self._catalog = CATALOG
        self._consts = _bus_constants()

    def interested(self, ctx: ModuleContext) -> bool:
        rp = ctx.relpath
        return rp.startswith("udt/") or rp.startswith("sabul/")

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        tracker = _UnitTracker(self._exact, self._api)
        findings: List[Finding] = []
        scopes: List[ast.AST] = [ctx.tree]
        scopes.extend(
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
        )
        scopes.extend(fn for _cls, fn in iter_functions(ctx.tree))
        for scope in scopes:
            cfg, in_states = tracker.analyse(scope)
            for node in cfg.stmt_nodes():
                state = in_states.get(node.idx)
                if state is None:
                    continue
                findings.extend(
                    self._flag_stmt(ctx, tracker, node.stmt, state)
                )
        return findings

    # -- per-statement flagging -----------------------------------------
    def _flag_stmt(
        self,
        ctx: ModuleContext,
        tracker: _UnitTracker,
        stmt: ast.stmt,
        state: State,
    ) -> Iterable[Finding]:
        from repro.analysis.seqno_taint import _own_exprs

        findings: List[Finding] = []
        if isinstance(stmt, ast.AugAssign) and isinstance(
            stmt.op, (ast.Add, ast.Sub)
        ):
            target_labels = state.get(
                _target_key(stmt.target), frozenset()
            ) or tracker.atom_labels(stmt.target, state)
            self._check_addsub(
                ctx,
                stmt,
                type(stmt.op).__name__,
                target_labels,
                tracker.eval_expr(stmt.value, state),
                findings,
            )
        for node in _own_exprs(stmt):
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                self._check_addsub(
                    ctx,
                    node,
                    type(node.op).__name__,
                    tracker.eval_expr(node.left, state),
                    tracker.eval_expr(node.right, state),
                    findings,
                )
            elif isinstance(node, ast.Compare):
                operands = [node.left] + list(node.comparators)
                for op, left, right in zip(node.ops, operands, operands[1:]):
                    if not isinstance(op, _FLAGGED_CMPOPS):
                        continue
                    self._check_addsub(
                        ctx,
                        node,
                        type(op).__name__ + " comparison",
                        tracker.eval_expr(left, state),
                        tracker.eval_expr(right, state),
                        findings,
                    )
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(ctx, tracker, node, state))
        return findings

    def _check_addsub(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        opname: str,
        left: FrozenSet[str],
        right: FrozenSet[str],
        findings: List[Finding],
    ) -> None:
        lu, ru = _single(left), _single(right)
        if lu is not None and ru is not None and lu != ru:
            findings.append(
                ctx.finding(
                    RULE,
                    node,
                    f"mixed-unit {opname}: left is [{lu}], right is [{ru}] "
                    "(convert explicitly or fix the operand)",
                )
            )

    def _check_call(
        self,
        ctx: ModuleContext,
        tracker: _UnitTracker,
        node: ast.Call,
        state: State,
    ) -> Iterable[Finding]:
        findings: List[Finding] = []
        fname = None
        if isinstance(node.func, ast.Name):
            fname = node.func.id
        elif isinstance(node.func, ast.Attribute):
            fname = node.func.attr
        # Scheduler-API argument units.
        for key, want in self._api.get(fname, {}).items():
            if not key.startswith("arg"):
                continue
            pos = int(key[3:])
            if pos >= len(node.args):
                continue
            unit = _single(tracker.eval_expr(node.args[pos], state))
            if unit is not None and unit != want:
                findings.append(
                    ctx.finding(
                        RULE,
                        node,
                        f"{fname}() expects [{want}] as argument {pos + 1}, "
                        f"got [{unit}]",
                    )
                )
        # Telemetry payload units vs the catalog annotation.
        if fname in ("emit", "_emit") and node.args:
            kind = self._kind_of_arg(node.args[0])
            spec2 = self._catalog.get(kind) if kind is not None else None
            if spec2 is not None and spec2.units:
                for kw in node.keywords:
                    want = spec2.units.get(kw.arg or "")
                    if want is None:
                        continue
                    unit = _single(tracker.eval_expr(kw.value, state))
                    if unit is not None and unit != want:
                        findings.append(
                            ctx.finding(
                                RULE,
                                node,
                                f"emit of {kind!r}: key {kw.arg!r} is "
                                f"declared [{want}] in the catalog but the "
                                f"expression is [{unit}]",
                            )
                        )
        return findings

    def _kind_of_arg(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Attribute):
            return self._consts.get(node.attr)
        if isinstance(node, ast.Name):
            return self._consts.get(node.id)
        return None


def _target_key(target: ast.expr) -> str:
    from repro.analysis.flow import var_key

    return var_key(target) or "<untracked>"


def _bus_constants() -> Dict[str, str]:
    from repro.obs import bus as OB

    return {
        name: value
        for name, value in vars(OB).items()
        if name.isupper() and isinstance(value, str)
    }
