"""thread-shared-state: the progress daemon thread's reads are allowlisted.

PR 6's :class:`repro.runner.progress.ProgressReporter` samples a *live*
simulator from a daemon thread — deliberately lock-free on the engine
side: the hot loop writes ``now`` and ``events_processed`` per event and
takes no lock for the reader.  That bargain is
only safe while the thread confines itself to a reviewed, read-mostly
slice of shared state; one innocent ``self._cur_sim.step()`` added in a
refactor would mutate engine state from the wrong thread.

This rule makes the bargain explicit and machine-checked.  A module
under ``runner/`` that starts a thread (``threading.Thread(target=
self.<method>)``) must declare, as module-level constants:

``THREAD_SHARED_READS``
    ``self`` attributes the thread-entry method (and every method it
    reaches through direct ``self.m()`` calls) may *read*.
``THREAD_OWNED``
    attributes only the thread itself touches — read *and* write allowed
    (sampler-local history like ``_last``).
``THREAD_SHARED_OBJECTS``
    attributes holding foreign objects (the live simulator).  Locals
    aliasing them are tracked with the dataflow framework; on such an
    object only the attribute names in ``THREAD_SHARED_OBJECT_READS``
    may be read, and *no* attribute store or method call is allowed —
    cross-thread mutation must go through the worker pipe/queue.

Violations: an undeclared ``self.X`` read, any ``self.X`` write outside
``THREAD_OWNED``, an undeclared read on a shared object, or any
store/call on one.  A module that starts a thread without the
declarations is itself a finding — the allowlist is the contract, not an
optional nicety.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Checker, Finding, ModuleContext
from repro.analysis.flow import State, TaintTracker, build_cfg

RULE = "thread-shared-state"

_DECLS = (
    "THREAD_SHARED_READS",
    "THREAD_OWNED",
    "THREAD_SHARED_OBJECTS",
    "THREAD_SHARED_OBJECT_READS",
)


def _literal_names(node: ast.AST) -> Optional[Set[str]]:
    """Evaluate a frozenset({...})/set/tuple-of-str literal, else None."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("frozenset", "set") and len(node.args) <= 1:
            if not node.args:
                return set()
            return _literal_names(node.args[0])
        return None
    if isinstance(node, (ast.Set, ast.Tuple, ast.List)):
        out: Set[str] = set()
        for e in node.elts:
            if isinstance(e, ast.Constant) and isinstance(e.value, str):
                out.add(e.value)
            else:
                return None
        return out
    return None


def _module_decls(tree: ast.AST) -> Dict[str, Set[str]]:
    decls: Dict[str, Set[str]] = {}
    for stmt in getattr(tree, "body", []):
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if isinstance(target, ast.Name) and target.id in _DECLS:
            names = _literal_names(stmt.value)
            if names is not None:
                decls[target.id] = names
    return decls


def _thread_entries(cls: ast.ClassDef) -> List[Tuple[str, ast.AST]]:
    """(method name, Thread-call node) for Thread(target=self.m) in cls."""
    entries: List[Tuple[str, ast.AST]] = []
    for node in ast.walk(cls):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        if name != "Thread":
            continue
        for kw in node.keywords:
            if kw.arg != "target":
                continue
            t = kw.value
            if (
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ):
                entries.append((t.attr, node))
    return entries


class _SharedObjectTaint(TaintTracker):
    """Taints locals aliasing a THREAD_SHARED_OBJECTS attribute."""

    def __init__(self, shared_objects: Set[str]):
        self._shared = shared_objects

    def atom_labels(self, node: ast.AST, state: State) -> FrozenSet[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self._shared
        ):
            return frozenset({"shared:" + node.attr})
        return frozenset()


class ThreadSharedStateChecker(Checker):
    rule = RULE
    description = (
        "daemon-thread methods may only read declared shared attributes "
        "(THREAD_SHARED_READS/...); cross-thread mutation is forbidden"
    )

    def interested(self, ctx: ModuleContext) -> bool:
        return ctx.relpath.startswith("runner/")

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        decls = _module_decls(ctx.tree)
        for cls in (
            n for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
        ):
            entries = _thread_entries(cls)
            if not entries:
                continue
            if "THREAD_SHARED_READS" not in decls:
                findings.append(
                    ctx.finding(
                        RULE,
                        entries[0][1],
                        f"class {cls.name!r} starts a thread but the module "
                        "declares no THREAD_SHARED_READS allowlist "
                        "(see docs/ANALYSIS.md)",
                    )
                )
                continue
            findings.extend(self._check_class(ctx, cls, entries, decls))
        return findings

    def _check_class(
        self,
        ctx: ModuleContext,
        cls: ast.ClassDef,
        entries: List[Tuple[str, ast.AST]],
        decls: Dict[str, Set[str]],
    ) -> Iterable[Finding]:
        methods = {
            n.name: n
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        reads = decls.get("THREAD_SHARED_READS", set())
        owned = decls.get("THREAD_OWNED", set())
        shared_objects = decls.get("THREAD_SHARED_OBJECTS", set())
        object_reads = decls.get("THREAD_SHARED_OBJECT_READS", set())

        # Thread-reachable methods: entry + transitive direct self-calls.
        reachable: List[str] = []
        todo = [name for name, _node in entries if name in methods]
        while todo:
            name = todo.pop()
            if name in reachable:
                continue
            reachable.append(name)
            for node in ast.walk(methods[name]):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in methods
                ):
                    todo.append(node.func.attr)

        findings: List[Finding] = []
        tracker = _SharedObjectTaint(shared_objects)
        for name in sorted(reachable):
            findings.extend(
                self._check_method(
                    ctx,
                    tracker,
                    methods[name],
                    set(methods),
                    reads,
                    owned,
                    object_reads,
                )
            )
        return findings

    def _check_method(
        self,
        ctx: ModuleContext,
        tracker: _SharedObjectTaint,
        fn: ast.AST,
        method_names: Set[str],
        reads: Set[str],
        owned: Set[str],
        object_reads: Set[str],
    ) -> Iterable[Finding]:
        from repro.analysis.seqno_taint import _own_exprs

        findings: List[Finding] = []
        cfg, in_states = tracker.analyse(fn)
        allowed_reads = reads | owned
        for node_ in cfg.stmt_nodes():
            state = in_states.get(node_.idx)
            if state is None:
                continue
            stmt = node_.stmt
            # self.X writes, and stores through shared-object aliases.
            for target in _stmt_store_targets(stmt):
                if not isinstance(target, ast.Attribute):
                    continue
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    if target.attr not in owned:
                        findings.append(
                            ctx.finding(
                                RULE,
                                target,
                                f"thread method {fn.name!r} writes "
                                f"'self.{target.attr}' which is not in "
                                "THREAD_OWNED (route mutations through the "
                                "worker pipe/queue)",
                            )
                        )
                elif any(
                    l.startswith("shared:")
                    for l in tracker.eval_expr(target.value, state)
                ):
                    findings.append(
                        ctx.finding(
                            RULE,
                            target,
                            f"thread method {fn.name!r} writes "
                            f"'.{target.attr}' on a thread-shared object; "
                            "cross-thread mutation must go through the "
                            "worker pipe/queue",
                        )
                    )
            for node in _own_exprs(stmt):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue
                # Undeclared self.X reads (method calls are reachability,
                # handled above, not shared state).
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr not in allowed_reads
                    and node.attr not in method_names
                ):
                    findings.append(
                        ctx.finding(
                            RULE,
                            node,
                            f"thread method {fn.name!r} reads "
                            f"'self.{node.attr}' which is not in "
                            "THREAD_SHARED_READS/THREAD_OWNED",
                        )
                    )
                    continue
                # Reads/calls on aliased shared objects.
                base_labels = tracker.eval_expr(node.value, state)
                shared = [
                    l for l in base_labels if l.startswith("shared:")
                ]
                if shared and node.attr not in object_reads:
                    origin = ", ".join(
                        sorted(l.split(":", 1)[1] for l in shared)
                    )
                    findings.append(
                        ctx.finding(
                            RULE,
                            node,
                            f"thread method {fn.name!r} accesses "
                            f"'.{node.attr}' on the shared object from "
                            f"'self.{origin}'; only "
                            "THREAD_SHARED_OBJECT_READS attributes may be "
                            "touched cross-thread",
                        )
                    )
        return findings


def _stmt_store_targets(stmt: ast.stmt) -> Iterable[ast.expr]:
    if isinstance(stmt, ast.Assign):
        for t in stmt.targets:
            yield from _flatten_target(t)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        yield from _flatten_target(stmt.target)


def _flatten_target(target: ast.expr) -> Iterable[ast.expr]:
    if isinstance(target, (ast.Tuple, ast.List)):
        for e in target.elts:
            yield from _flatten_target(e)
    elif isinstance(target, ast.Starred):
        yield from _flatten_target(target.value)
    else:
        yield target
