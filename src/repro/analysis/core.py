"""Checker driver: file walking, AST parsing, suppressions, findings.

The static-analysis half of :mod:`repro.analysis` is a small pluggable
framework over :mod:`ast`.  A :class:`Checker` sees one parsed module at
a time (:class:`ModuleContext`) and yields :class:`Finding` records;
checkers that need a whole-project view (the event-schema contract
check) collect state per module and report from :meth:`Checker.finalize`.

Findings are suppressible in source with a trailing comment::

    if ack_seq == self._last_ack_seq_sent:  # lint: disable=seqno-taint

or for a whole file with ``# lint: disable-file=<rule>`` on any line.
For a statement that spans several physical lines the comment may sit on
*any* of them — the suppression covers the whole statement, so black-style
wrapped calls don't force the comment onto the (often mid-expression)
anchor line.  Suppressions are deliberate, reviewed exceptions — the
comment should say *why* the rule does not apply (see docs/ANALYSIS.md).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Severity levels, mildest first (ordering is meaningful for sorting).
SEVERITIES = ("warning", "error")

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*lint:\s*disable-file=([A-Za-z0-9_,\- ]+)")


@dataclass(frozen=True)
class Finding:
    """One checker hit, anchored to a source location."""

    rule: str
    path: str  # forward-slash path relative to the analysis root
    line: int
    col: int
    severity: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "severity": self.severity,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "Finding":
        return cls(
            rule=d["rule"],
            path=d["path"],
            line=int(d.get("line", 0)),
            col=int(d.get("col", 0)),
            severity=d.get("severity", "error"),
            message=d["message"],
        )


class ModuleContext:
    """One parsed source module handed to every checker."""

    def __init__(self, root: Path, path: Path, source: str, tree: ast.AST):
        self.root = root
        self.path = path
        #: forward-slash path relative to the analysis root, e.g. "udt/core.py"
        self.relpath = path.relative_to(root).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        # Suppressions: line -> rules, plus file-wide rules.
        self.line_suppressions: Dict[int, frozenset] = {}
        self.file_suppressions: frozenset = frozenset()
        self._scan_suppressions()
        self._extend_suppression_spans()

    def _scan_suppressions(self) -> None:
        file_rules: set = set()
        for lineno, text in enumerate(self.lines, start=1):
            if "lint:" not in text:
                continue
            m = _SUPPRESS_RE.search(text)
            if m:
                rules = frozenset(r.strip() for r in m.group(1).split(",") if r.strip())
                self.line_suppressions[lineno] = rules
            m = _SUPPRESS_FILE_RE.search(text)
            if m:
                file_rules.update(r.strip() for r in m.group(1).split(",") if r.strip())
        self.file_suppressions = frozenset(file_rules)

    def _extend_suppression_spans(self) -> None:
        """Spread a suppression over its whole multi-line simple statement.

        A comment on any physical line of a wrapped *simple* statement
        (assignment, call, return, ...) suppresses for every line the
        statement occupies, so findings anchored to a sub-expression on a
        different line than the comment are still covered.  Compound
        statements (``if``/``for``/``def``...) keep exact-line semantics —
        blanket-suppressing a whole block from its header comment would
        hide far more than the author reviewed.
        """
        if not self.line_suppressions:
            return
        compound = (
            ast.If, ast.For, ast.AsyncFor, ast.While, ast.With,
            ast.AsyncWith, ast.Try, ast.FunctionDef, ast.AsyncFunctionDef,
            ast.ClassDef,
        )
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.stmt) or isinstance(node, compound):
                continue
            start = getattr(node, "lineno", None)
            end = getattr(node, "end_lineno", None)
            if start is None or end is None or end <= start:
                continue
            span = range(start, end + 1)
            rules = frozenset().union(
                *(self.line_suppressions.get(ln, frozenset()) for ln in span)
            )
            if not rules:
                continue
            for ln in span:
                self.line_suppressions[ln] = rules | self.line_suppressions.get(
                    ln, frozenset()
                )

    def suppressed(self, rule: str, line: int) -> bool:
        if rule in self.file_suppressions or "all" in self.file_suppressions:
            return True
        rules = self.line_suppressions.get(line)
        return rules is not None and (rule in rules or "all" in rules)

    def finding(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: str = "error",
    ) -> Finding:
        return Finding(
            rule=rule,
            path=self.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            severity=severity,
            message=message,
        )


class Checker:
    """Base class for one lint rule (or one family of related rules)."""

    #: rule id used in findings, ``--rule`` filtering and suppressions.
    rule: str = ""
    #: one-line description for ``repro-udt lint --list-rules`` and docs.
    description: str = ""

    def interested(self, ctx: ModuleContext) -> bool:
        """Cheap scope filter; return False to skip the module entirely."""
        return True

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Per-module findings (suppressions applied by the driver)."""
        return ()

    def finalize(self) -> Iterable[Finding]:
        """Whole-project findings, after every module has been seen."""
        return ()


def iter_python_files(root: Path) -> Iterator[Path]:
    """All .py files under ``root``, sorted for deterministic output."""
    yield from sorted(p for p in root.rglob("*.py") if p.is_file())


def load_module(root: Path, path: Path) -> Tuple[Optional[ModuleContext], Optional[Finding]]:
    """Parse one file; returns (ctx, None) or (None, parse-error finding)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule="parse-error",
            path=path.relative_to(root).as_posix(),
            line=exc.lineno or 0,
            col=exc.offset or 0,
            severity="error",
            message=f"cannot parse: {exc.msg}",
        )
    return ModuleContext(root, path, source, tree), None


def run_checkers(
    root: Path,
    checkers: Sequence[Checker],
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run ``checkers`` over every module under ``root``.

    ``rules`` filters to a subset of rule ids (suppression comments and
    parse errors always apply).  Findings come back sorted by
    (path, line, rule) with suppressed ones removed.
    """
    selected = [c for c in checkers if rules is None or c.rule in rules]
    findings: List[Finding] = []
    for path in iter_python_files(root):
        ctx, parse_err = load_module(root, path)
        if parse_err is not None:
            findings.append(parse_err)
            continue
        assert ctx is not None
        for checker in selected:
            if not checker.interested(ctx):
                continue
            for f in checker.check_module(ctx):
                if not ctx.suppressed(f.rule, f.line):
                    findings.append(f)
    # Whole-project passes (suppressions were applied per-module by the
    # checkers via ctx.suppressed where relevant; finalize findings are
    # synthesized from cross-module state and carry their own locations).
    for checker in selected:
        findings.extend(checker.finalize())
    findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return findings


def default_root() -> Path:
    """The installed ``repro`` package directory (analysis target)."""
    import repro

    return Path(repro.__file__).resolve().parent


def repo_root() -> Optional[Path]:
    """The source checkout root (parent of ``src/``), when recognisable."""
    pkg = default_root()
    if pkg.parent.name == "src":
        return pkg.parent.parent
    return None
