"""event-schema: every telemetry payload matches repro/obs/catalog.py.

PRs 1–2 grew an event bus whose producers (``udt/core.py``,
``sim/link.py``, ``hostmodel/cpu.py``...) and consumers
(``obs/spans.py``, ``obs/timeline.py``) agree on payload keys purely by
string convention.  This checker makes the contract in
:mod:`repro.obs.catalog` machine-enforced, in both directions:

**Producers** — every ``bus.emit(KIND, t, src, key=...)`` (and
``self._emit(KIND, key=...)`` wrapper) site across ``src/repro``:

* ``KIND`` must be declared in the catalog (*emitted-but-never-declared*);
* every keyword must be a declared key (*undeclared key*);
* every ``required`` key must be present (*missing required key* — this
  is the check that makes deleting a key from an emit site fail lint).

**Consumers** — key accesses in ``obs/spans.py`` / ``obs/timeline.py`` /
``obs/report.py``.  The checker understands the idiomatic dispatch
shape: inside a branch guarded by ``kind == "pkt.snd"`` (or ``ev.kind ==
CC_SAMPLE``, or ``kind in (...)``), any ``rec["key"]`` / ``rec.get("key")``
access is attributed to that kind and must be declared
(*consumed-but-never-declared*) and actually produced by at least one
emit site (*consumed-but-never-emitted*).

**Catalog hygiene** — a declared, non-virtual kind with no emit site
anywhere is flagged (*declared-but-never-emitted*).

Kind constants are resolved through :mod:`repro.obs.bus` (``OB.CC_SAMPLE``,
imported names, or string literals).  Emit calls whose kind is a runtime
variable (the bus's own forwarding code) are skipped — the wrapper's
*call sites* are checked instead.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.core import Checker, Finding, ModuleContext

RULE = "event-schema"

#: modules whose key *accesses* are treated as consumer contract usage.
CONSUMER_MODULES = frozenset(
    {"obs/spans.py", "obs/timeline.py", "obs/report.py"}
)


def _bus_constants() -> Dict[str, str]:
    """NAME -> kind string for every constant in repro.obs.bus."""
    from repro.obs import bus as OB

    return {
        name: value
        for name, value in vars(OB).items()
        if name.isupper() and isinstance(value, str)
    }


@dataclass
class _EmitSite:
    kind: str
    path: str
    line: int
    col: int
    keys: frozenset
    dynamic: bool  # carries **kwargs, so the key set is open


@dataclass
class _Consumption:
    kind: str
    key: str
    path: str
    line: int
    col: int


class _ConsumerVisitor(ast.NodeVisitor):
    """Collects per-kind key accesses inside kind-guarded branches."""

    def __init__(self, consts: Dict[str, str], known_kinds: Set[str]):
        self._consts = consts
        self._known = known_kinds
        self._stack: List[Tuple[str, ...]] = []
        self.accesses: List[Tuple[str, str, ast.AST]] = []  # (kind, key, node)

    # -- kind resolution -------------------------------------------------
    def _kind_of(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in self._known or "." in node.value:
                return node.value
            return None
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is not None:
            return self._consts.get(name)
        return None

    def _kinds_from_test(self, test: ast.AST) -> Tuple[str, ...]:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return ()
        op = test.ops[0]
        rhs = test.comparators[0]
        if isinstance(op, ast.Eq):
            for side in (test.left, rhs):
                kind = self._kind_of(side)
                if kind is not None:
                    return (kind,)
        elif isinstance(op, ast.In) and isinstance(rhs, (ast.Tuple, ast.List, ast.Set)):
            kinds = tuple(
                k for k in (self._kind_of(e) for e in rhs.elts) if k is not None
            )
            return kinds
        return ()

    # -- traversal -------------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        kinds = self._kinds_from_test(node.test)
        if kinds:
            self._stack.append(kinds)
            for stmt in node.body:
                self.visit(stmt)
            self._stack.pop()
        else:
            for stmt in node.body:
                self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)

    def _record(self, key: str, node: ast.AST) -> None:
        if not self._stack:
            return
        for kind in self._stack[-1]:
            self.accesses.append((kind, key, node))

    def visit_Subscript(self, node: ast.Subscript) -> None:
        sl = node.slice
        if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
            self._record(sl.value, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "get"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            self._record(node.args[0].value, node)
        self.generic_visit(node)


class EventSchemaChecker(Checker):
    rule = RULE
    description = (
        "bus.emit payloads and consumer key accesses must match the "
        "declared event catalog (repro/obs/catalog.py)"
    )

    def __init__(self) -> None:
        from repro.obs.catalog import BASE_KEYS, CATALOG

        self._catalog = CATALOG
        self._base_keys = BASE_KEYS
        self._consts = _bus_constants()
        self._emits: List[_EmitSite] = []
        self._consumptions: List[_Consumption] = []
        self._catalog_relpath = "obs/catalog.py"
        # Catalog-hygiene findings (declared-but-never-emitted) only make
        # sense when the walked tree is the real repro package; partial
        # trees (unit-test fixtures, subpackage runs) would flag every
        # kind whose producer simply isn't under the analysis root.
        self._saw_catalog = False

    # -- kind resolution at emit sites ------------------------------------
    def _kind_of_arg(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Attribute):
            return self._consts.get(node.attr)
        if isinstance(node, ast.Name):
            return self._consts.get(node.id)
        return None

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Record this module's emit and consumer sites for :meth:`finalize`."""
        # Producers: any module under src/repro.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if not (isinstance(f, ast.Attribute) and f.attr in ("emit", "_emit")):
                continue
            if not node.args:
                continue
            kind = self._kind_of_arg(node.args[0])
            if kind is None:
                continue  # runtime-variable kind: the wrapper's own body
            if ctx.suppressed(RULE, node.lineno):
                continue
            self._emits.append(
                _EmitSite(
                    kind=kind,
                    path=ctx.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    keys=frozenset(
                        kw.arg for kw in node.keywords if kw.arg is not None
                    ),
                    dynamic=any(kw.arg is None for kw in node.keywords),
                )
            )
        # Consumers: the three obs consumer modules.
        if ctx.relpath in CONSUMER_MODULES:
            visitor = _ConsumerVisitor(self._consts, set(self._catalog))
            visitor.visit(ctx.tree)
            for kind, key, node in visitor.accesses:
                line = getattr(node, "lineno", 0)
                if ctx.suppressed(RULE, line):
                    continue
                self._consumptions.append(
                    _Consumption(
                        kind=kind,
                        key=key,
                        path=ctx.relpath,
                        line=line,
                        col=getattr(node, "col_offset", 0),
                    )
                )
        if ctx.relpath == self._catalog_relpath:
            self._saw_catalog = True
        return ()

    def finalize(self) -> Iterable[Finding]:
        findings: List[Finding] = []
        emitted_keys: Dict[str, Set[str]] = {}
        emitted_dynamic: Set[str] = set()
        for site in self._emits:
            spec = self._catalog.get(site.kind)
            if spec is None:
                findings.append(
                    Finding(
                        RULE,
                        site.path,
                        site.line,
                        site.col,
                        "error",
                        f"event {site.kind!r} is emitted but never declared "
                        "in repro/obs/catalog.py",
                    )
                )
                continue
            emitted_keys.setdefault(site.kind, set()).update(site.keys)
            if site.dynamic:
                emitted_dynamic.add(site.kind)
            for key in sorted(site.keys - spec.keys):
                findings.append(
                    Finding(
                        RULE,
                        site.path,
                        site.line,
                        site.col,
                        "error",
                        f"emit of {site.kind!r} carries undeclared key "
                        f"{key!r} (declare it in repro/obs/catalog.py)",
                    )
                )
            if not site.dynamic:
                for key in sorted(spec.required - site.keys):
                    findings.append(
                        Finding(
                            RULE,
                            site.path,
                            site.line,
                            site.col,
                            "error",
                            f"emit of {site.kind!r} is missing required key "
                            f"{key!r}",
                        )
                    )
        for c in self._consumptions:
            if c.key in self._base_keys:
                continue
            spec = self._catalog.get(c.kind)
            if spec is None:
                findings.append(
                    Finding(
                        RULE,
                        c.path,
                        c.line,
                        c.col,
                        "error",
                        f"consumer reads event {c.kind!r} which is not "
                        "declared in repro/obs/catalog.py",
                    )
                )
                continue
            if c.key not in spec.keys:
                findings.append(
                    Finding(
                        RULE,
                        c.path,
                        c.line,
                        c.col,
                        "error",
                        f"consumer reads key {c.key!r} of {c.kind!r} which "
                        "is not declared in repro/obs/catalog.py",
                    )
                )
                continue
            produced = emitted_keys.get(c.kind)
            if (
                not spec.virtual
                and produced is not None
                and c.kind not in emitted_dynamic
                and c.key not in produced
            ):
                findings.append(
                    Finding(
                        RULE,
                        c.path,
                        c.line,
                        c.col,
                        "error",
                        f"consumer reads key {c.key!r} of {c.kind!r} which "
                        "no emit site produces",
                    )
                )
        for kind, spec in self._catalog.items():
            if not self._saw_catalog:
                break
            if spec.virtual or kind in emitted_keys:
                continue
            findings.append(
                Finding(
                    RULE,
                    self._catalog_relpath,
                    1,
                    0,
                    "warning",
                    f"event {kind!r} is declared in the catalog but never "
                    "emitted anywhere under src/repro",
                )
            )
        # Reset cross-module state so a driver instance can be reused.
        self._emits = []
        self._consumptions = []
        self._saw_catalog = False
        return findings
