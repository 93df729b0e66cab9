"""Statically extract a per-flow event-order model from the UDT endpoint.

:mod:`repro.udt.core` already encodes a protocol lifecycle in its guard
structure: every handler that can emit telemetry first checks
``self.connected`` / ``self.closed``, the handshake path calls
``_become_connected`` only under ``not self.connected``, and ``close``
bails when already closed.  This module reads that structure out of the
AST — it never imports or runs the endpoint — and distils it into a
small, committable JSON model (``analysis/protocol_model.json``):

* ``requires_prior``: kinds whose every static emit site is *dominated*
  by a connected-guard must appear after ``conn.connected`` for the same
  ``src`` in any trace;
* ``unique``: ``conn.connected`` / ``conn.closed`` can appear at most
  once per ``src`` (derived from the guards around their emitters, and
  only emitted into the model when those guards are actually present);
* ``terminal``: nothing follows ``conn.closed`` for a ``src`` (derived
  from every emitter being closed-silent).

Each constraint is **verified against the AST before it is written** —
if a refactor removes a guard, regeneration produces a *different*
model, and the committed-vs-extracted equality test fails loudly rather
than the checker silently enforcing stale rules.  Regenerate with::

    python -m repro.analysis.protomodel

Domination analysis: a method "runs connected" when it opens with a
guard whose failing side returns (``if not self.connected [or ...]:
return``), or when every direct ``self.m(...)`` caller runs connected
*and* the method is neither public API nor referenced as a bare
callback (``self.sched.call_at(t, self._on_exp_timer)`` re-enters the
method from the event loop, bypassing any caller's guard — callbacks
must carry their own).  Congestion-control kinds (``cc.*``) are emitted
from the pluggable controllers; their entry methods are mapped through
``self.cc.<entry>(...)`` call sites in the endpoint and inherit those
sites' domination.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import default_root, repo_root
from repro.analysis.event_schema import _bus_constants

MODEL_SCHEMA = 1
MODEL_KIND = "udt.protocol_model"
#: where the committed model lives, relative to the source checkout root.
MODEL_RELPATH = "analysis/protocol_model.json"

CORE_RELPATH = "udt/core.py"
CORE_CLASS = "UdtCore"
#: congestion-controller modules whose ``cc.*`` emits ride core's guards.
CC_RELPATHS = ("udt/cc.py", "udt/cc_tcp.py", "udt/delaycc.py")

CONNECTED_KIND = "conn.connected"
CLOSED_KIND = "conn.closed"

#: simple statements allowed before (between) leading guards.
_LEADING_OK = (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr)


def _is_not_attr(node: ast.AST, attr: str) -> bool:
    """``not self.<attr>``"""
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.Not)
        and _is_attr(node.operand, attr)
    )


def _is_attr(node: ast.AST, attr: str) -> bool:
    """``self.<attr>``"""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == attr
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _bails(body: List[ast.stmt]) -> bool:
    """Guard body that abandons the method: ``return`` / ``raise``."""
    return len(body) == 1 and isinstance(body[0], (ast.Return, ast.Raise))


def _leading_guards(fn: ast.AST) -> Set[str]:
    """Facts guaranteed for the rest of the method by leading guard-ifs.

    ``{"connected"}`` when a leading ``if`` whose body returns has
    ``not self.connected`` among its (Or-joined) operands; likewise
    ``{"not_closed"}`` for a ``self.closed`` operand.  In an ``or``
    test every operand alone triggers the bail-out, so each operand
    contributes its guarantee independently.
    """
    facts: Set[str] = set()
    for stmt in fn.body:
        if isinstance(stmt, ast.If) and _bails(stmt.body) and not stmt.orelse:
            operands = (
                stmt.test.values
                if isinstance(stmt.test, ast.BoolOp)
                and isinstance(stmt.test.op, ast.Or)
                else [stmt.test]
            )
            for op in operands:
                if _is_not_attr(op, "connected"):
                    facts.add("connected")
                elif _is_attr(op, "closed"):
                    facts.add("not_closed")
            continue
        if isinstance(stmt, _LEADING_OK):
            continue  # docstring, plain assigns: guards may follow
        break
    return facts


def _kind_of_arg(node: ast.AST, consts: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Attribute):
        return consts.get(node.attr)
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


class _MethodInfo:
    __slots__ = ("name", "emits", "self_calls", "cc_calls", "guards")

    def __init__(self, fn: ast.AST, consts: Dict[str, str]):
        self.name = fn.name
        self.guards = _leading_guards(fn)
        self.emits: List[str] = []
        self.self_calls: Set[str] = set()
        self.cc_calls: Set[str] = set()
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not isinstance(f, ast.Attribute):
                continue
            if f.attr in ("emit", "_emit") and node.args:
                kind = _kind_of_arg(node.args[0], consts)
                if kind is not None:
                    self.emits.append(kind)
            if isinstance(f.value, ast.Name) and f.value.id == "self":
                self.self_calls.add(f.attr)
            elif _is_attr(f.value, "cc"):
                self.cc_calls.add(f.attr)


def _class_methods(cls: ast.ClassDef, consts: Dict[str, str]) -> Dict[str, _MethodInfo]:
    return {
        n.name: _MethodInfo(n, consts)
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _callback_refs(cls: ast.ClassDef, methods: Dict[str, _MethodInfo]) -> Set[str]:
    """Methods referenced as bare ``self.m`` (scheduler callbacks etc.)."""
    refs: Set[str] = set()
    calls = {
        id(node.func)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
    }
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in methods
            and id(node) not in calls
        ):
            refs.add(node.attr)
    return refs


def _guaranteed(
    methods: Dict[str, _MethodInfo], roots: Set[str], fact: str
) -> Set[str]:
    """Methods where ``fact`` holds on every statement after the guards.

    Fixpoint: a method qualifies through its own leading guard, or —
    when it is not re-enterable from outside (not a root) — because
    every direct caller qualifies.
    """
    callers: Dict[str, Set[str]] = {name: set() for name in methods}
    for m in methods.values():
        for callee in m.self_calls:
            if callee in callers:
                callers[callee].add(m.name)
    ok = {name for name, m in methods.items() if fact in m.guards}
    changed = True
    while changed:
        changed = False
        for name, m in methods.items():
            if name in ok or name in roots:
                continue
            cs = callers[name]
            if cs and cs <= ok:
                ok.add(name)
                changed = True
    return ok


def _cc_kind_entries(
    pkg_root: Path, consts: Dict[str, str]
) -> Dict[str, Set[Optional[str]]]:
    """cc kind -> set of controller *entry* methods that can reach its emit.

    Entries are resolved per controller class with single-inheritance
    name lookup across the analysed cc modules; a ``None`` entry marks
    an emitting method not reachable from any method (so it must be
    treated as externally callable — never dominated).
    """
    classes: Dict[str, Tuple[List[str], Dict[str, _MethodInfo]]] = {}
    for rel in CC_RELPATHS:
        path = pkg_root / rel
        if not path.is_file():
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            bases = [
                b.id if isinstance(b, ast.Name) else getattr(b, "attr", "")
                for b in cls.bases
            ]
            classes[cls.name] = (bases, _class_methods(cls, consts))

    def resolved(cname: str) -> Dict[str, _MethodInfo]:
        out: Dict[str, _MethodInfo] = {}
        seen: Set[str] = set()
        todo = [cname]
        while todo:
            c = todo.pop(0)
            if c in seen or c not in classes:
                continue
            seen.add(c)
            bases, methods = classes[c]
            for name, info in methods.items():
                out.setdefault(name, info)
            todo.extend(bases)
        return out

    kind_entries: Dict[str, Set[Optional[str]]] = {}
    for cname in classes:
        methods = resolved(cname)
        callers: Dict[str, Set[str]] = {n: set() for n in methods}
        for m in methods.values():
            for callee in m.self_calls:
                if callee in callers:
                    callers[callee].add(m.name)
        for name, m in methods.items():
            for kind in m.emits:
                if not kind.startswith("cc."):
                    continue
                # Walk up the intra-class call graph to entry methods
                # (methods nobody in the class calls).
                entries: Set[Optional[str]] = set()
                todo, seen = [name], {name}
                while todo:
                    cur = todo.pop()
                    cs = callers.get(cur, set())
                    if not cs:
                        entries.add(cur)
                        continue
                    for c in cs:
                        if c not in seen:
                            seen.add(c)
                            todo.append(c)
                kind_entries.setdefault(kind, set()).update(entries)
    return kind_entries


def _unique_connected_verified(
    methods: Dict[str, _MethodInfo], emitters: Iterable[str], cls: ast.ClassDef
) -> bool:
    """Every call to a conn.connected emitter sits under ``not self.connected``."""
    emitset = set(emitters)
    if not emitset:
        return False
    fns = {
        n.name: n
        for n in cls.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def test_has_not_connected(test: ast.AST) -> bool:
        if _is_not_attr(test, "connected"):
            return True
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            return any(test_has_not_connected(v) for v in test.values)
        return False

    def calls_in(body: List[ast.stmt]) -> Iterable[ast.Call]:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield node

    for fn in fns.values():
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == "self"
                and f.attr in emitset
            ):
                continue
            # The call must be inside some If branch whose test (or the
            # conjunction it sits in) includes ``not self.connected``.
            guarded = False
            for outer in ast.walk(fn):
                if not isinstance(outer, ast.If):
                    continue
                if test_has_not_connected(outer.test) and any(
                    c is node for c in calls_in(outer.body)
                ):
                    guarded = True
                    break
            if not guarded:
                return False
    return True


def extract_model(pkg_root: Optional[Path] = None) -> Dict:
    """Extract the protocol model from the source tree (AST only)."""
    pkg_root = pkg_root if pkg_root is not None else default_root()
    consts = _bus_constants()
    core_path = pkg_root / CORE_RELPATH
    tree = ast.parse(core_path.read_text(encoding="utf-8"), filename=str(core_path))
    cls = next(
        (
            n
            for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == CORE_CLASS
        ),
        None,
    )
    if cls is None:
        raise ValueError(f"{CORE_RELPATH} defines no class {CORE_CLASS}")
    methods = _class_methods(cls, consts)
    callbacks = _callback_refs(cls, methods)
    public = {n for n in methods if not n.startswith("_")}
    roots = callbacks | public
    connected_ok = _guaranteed(methods, roots, "connected")
    not_closed_ok = _guaranteed(methods, roots, "not_closed")

    # kind -> emitting core methods
    kind_emitters: Dict[str, List[str]] = {}
    for name, m in methods.items():
        for kind in m.emits:
            kind_emitters.setdefault(kind, []).append(name)

    # cc.* kinds arrive through the pluggable controller: map their
    # controller entry methods onto the core call sites that invoke them.
    cc_entries = _cc_kind_entries(pkg_root, consts)
    cc_callsites: Dict[str, Set[str]] = {}
    for name, m in methods.items():
        for entry in m.cc_calls:
            cc_callsites.setdefault(entry, set()).add(name)
    for kind, entries in sorted(cc_entries.items()):
        sites: Set[str] = set()
        reachable = True
        for entry in entries:
            callers = cc_callsites.get(entry, set())
            if entry is None or not callers:
                reachable = False  # wired dynamically (e.g. delay taps)
                break
            sites.update(callers)
        if reachable and sites:
            kind_emitters.setdefault(kind, []).extend(sorted(sites))
        else:
            kind_emitters.setdefault(kind, [])

    kinds: Dict[str, Dict] = {}
    constraints: List[Dict] = []
    for kind in sorted(kind_emitters):
        emitters = sorted(set(kind_emitters[kind]))
        dominated = bool(emitters) and all(e in connected_ok for e in emitters)
        kinds[kind] = {
            "emitters": emitters,
            "connected_dominated": dominated,
        }
        if dominated and kind not in (CONNECTED_KIND, CLOSED_KIND):
            constraints.append(
                {"type": "requires_prior", "kind": kind, "prior": CONNECTED_KIND}
            )

    if CONNECTED_KIND in kind_emitters and _unique_connected_verified(
        methods, kind_emitters[CONNECTED_KIND], cls
    ):
        constraints.append({"type": "unique", "kind": CONNECTED_KIND})

    closed_emitters = kind_emitters.get(CLOSED_KIND, [])
    if closed_emitters and all(
        "not_closed" in methods[e].guards for e in closed_emitters
    ):
        constraints.append({"type": "unique", "kind": CLOSED_KIND})
        # Terminal: every emitter of every *other* kind is closed-silent.
        others = [
            e
            for kind, emitters in kind_emitters.items()
            if kind != CLOSED_KIND
            for e in emitters
        ]
        if others and all(e in not_closed_ok for e in others):
            constraints.append({"type": "terminal", "kind": CLOSED_KIND})

    constraints.sort(key=lambda c: (c["type"], c["kind"]))
    return {
        "schema": MODEL_SCHEMA,
        "kind": MODEL_KIND,
        "class": CORE_CLASS,
        "sources": [CORE_RELPATH, *CC_RELPATHS],
        "kinds": kinds,
        "constraints": constraints,
    }


def render_model(model: Dict) -> str:
    return json.dumps(model, indent=2, sort_keys=True) + "\n"


def default_model_path() -> Optional[Path]:
    repo = repo_root()
    return repo / MODEL_RELPATH if repo is not None else None


def load_model(path: Optional[Path] = None) -> Dict:
    """The committed model (or ``path``); extracts live as a fallback."""
    if path is None:
        path = default_model_path()
    if path is not None and path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return extract_model()


def main(argv: Optional[List[str]] = None) -> int:  # pragma: no cover - thin
    import argparse

    argparse.ArgumentParser(
        prog="python -m repro.analysis.protomodel",
        description="Regenerate analysis/protocol_model.json from the AST.",
    ).parse_args(argv)
    text = render_model(extract_model())
    path = default_model_path()
    if path is None:
        print(text, end="")
        return 0
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
