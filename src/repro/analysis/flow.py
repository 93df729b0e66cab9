"""Intra-procedural CFG + forward dataflow framework over ``ast``.

PR 3's checkers are per-node pattern matchers: they flag ``a < b`` when an
operand *looks like* a sequence number, but lose the value the moment it
is copied into an innocently-named local.  This module is the shared
infrastructure that lets rules follow values *across* statements:

* :func:`build_cfg` turns one ``ast.FunctionDef`` into a per-statement
  control-flow graph (if/while/for/try/with/return/break/continue/raise
  all modelled; ``try`` conservatively edges every body statement into
  every handler).
* :func:`run_forward` is a classic worklist fixpoint over that CFG for
  any monotone transfer function.
* :class:`TaintTracker` is the forward taint instantiation
  ``seqno-taint`` builds on: the abstract state maps
  variable keys (locals and ``self.attr`` pseudo-locals) to frozensets
  of labels, joined by union.  Rules override the two *semantic* hooks —
  :meth:`TaintTracker.atom_labels` (what does a fresh name/attribute
  carry?) and :meth:`TaintTracker.call_labels` (what does a call return?)
  — and the tracker handles assignments, tuple unpacking, augmented
  assignment, loop targets and ``with ... as`` bindings.

The framework is deliberately intra-procedural: cross-function facts
(tainted ``self`` attributes, tainted helper returns) are computed by the
rules themselves with a cheap module-level fixpoint and fed back in
through the hooks.  That keeps the fixpoint small enough that the whole
lint run stays inside the CI time budget.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

#: Abstract state: variable key -> set of labels.  Missing key = bottom.
State = Dict[str, FrozenSet[str]]

#: A function definition of either flavour.
FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Statements that carry nested statement blocks (compound statements).
COMPOUND_STMTS = (
    ast.If,
    ast.While,
    ast.For,
    ast.AsyncFor,
    ast.Try,
    ast.With,
    ast.AsyncWith,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


# ---------------------------------------------------------------------------
# CFG
# ---------------------------------------------------------------------------


@dataclass
class CFGNode:
    """One CFG vertex: a single statement, or a synthetic entry/exit."""

    idx: int
    stmt: Optional[ast.stmt]  # None for entry/exit
    kind: str  # "entry" | "exit" | "stmt"
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    nodes: List[CFGNode]
    entry: int
    exit: int

    def stmt_nodes(self) -> Iterator[CFGNode]:
        for n in self.nodes:
            if n.stmt is not None:
                yield n


class _CfgBuilder:
    def __init__(self) -> None:
        self.nodes: List[CFGNode] = []
        self._breaks: List[List[int]] = []
        self._continues: List[List[int]] = []
        self._exit = -1

    def _new(self, stmt: Optional[ast.stmt], kind: str = "stmt") -> int:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node.idx

    def _edge(self, a: int, b: int) -> None:
        if b not in self.nodes[a].succs:
            self.nodes[a].succs.append(b)

    def _link(self, preds: Sequence[int], target: int) -> None:
        for p in preds:
            self._edge(p, target)

    def build(self, fn: ast.AST) -> CFG:
        entry = self._new(None, "entry")
        self._exit = self._new(None, "exit")
        frontier = self._seq(list(getattr(fn, "body", [])), [entry])
        self._link(frontier, self._exit)
        for node in self.nodes:
            for s in node.succs:
                self.nodes[s].preds.append(node.idx)
        return CFG(self.nodes, entry, self._exit)

    def _seq(self, stmts: List[ast.stmt], preds: List[int]) -> List[int]:
        for stmt in stmts:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            node = self._new(stmt)
            self._link(preds, node)
            body_out = self._seq(stmt.body, [node])
            else_out = self._seq(stmt.orelse, [node]) if stmt.orelse else [node]
            return body_out + else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = self._new(stmt)
            self._link(preds, head)
            self._breaks.append([])
            self._continues.append([])
            body_out = self._seq(stmt.body, [head])
            self._link(body_out, head)
            for c in self._continues.pop():
                self._edge(c, head)
            outs = [head]
            if stmt.orelse:
                outs = self._seq(stmt.orelse, [head])
            outs.extend(self._breaks.pop())
            return outs
        if isinstance(stmt, ast.Try):
            first_body = len(self.nodes)
            body_out = self._seq(stmt.body, preds)
            body_nodes = list(range(first_body, len(self.nodes)))
            outs = list(body_out)
            if stmt.orelse:
                outs = self._seq(stmt.orelse, body_out)
            for handler in stmt.handlers:
                head = self._new(None, "stmt")  # synthetic handler entry
                self.nodes[head].stmt = _handler_marker(handler)
                # Conservative: any statement in the body may raise.
                self._link(preds, head)
                self._link(body_nodes, head)
                outs.extend(self._seq(handler.body, [head]))
            if stmt.finalbody:
                outs = self._seq(stmt.finalbody, outs)
            return outs
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            node = self._new(stmt)
            self._link(preds, node)
            return self._seq(stmt.body, [node])
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._new(stmt)
            self._link(preds, node)
            self._edge(node, self._exit)
            return []
        if isinstance(stmt, ast.Break):
            node = self._new(stmt)
            self._link(preds, node)
            if self._breaks:
                self._breaks[-1].append(node)
            else:
                self._edge(node, self._exit)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new(stmt)
            self._link(preds, node)
            if self._continues:
                self._continues[-1].append(node)
            else:
                self._edge(node, self._exit)
            return []
        # Nested defs/classes are opaque single nodes; their bodies are
        # separate CFGs analysed on their own.
        node = self._new(stmt)
        self._link(preds, node)
        return [node]


def _handler_marker(handler: ast.ExceptHandler) -> ast.stmt:
    """A synthetic Pass carrying the handler's ``as name`` binding info."""
    marker = ast.Pass()
    marker.lineno = handler.lineno
    marker.col_offset = handler.col_offset
    marker._handler_name = handler.name  # type: ignore[attr-defined]
    return marker


def build_cfg(fn: ast.AST) -> CFG:
    """Per-statement CFG for one function (or any body-bearing node)."""
    return _CfgBuilder().build(fn)


# ---------------------------------------------------------------------------
# Generic forward fixpoint
# ---------------------------------------------------------------------------


def join_states(a: State, b: State) -> State:
    """Key-wise union of two abstract states."""
    if not a:
        return dict(b)
    out = dict(a)
    for key, labels in b.items():
        cur = out.get(key)
        out[key] = labels if cur is None else (cur | labels)
    return out


def run_forward(
    cfg: CFG,
    init: State,
    transfer: Callable[[Optional[ast.stmt], State], State],
) -> Dict[int, State]:
    """Worklist forward dataflow; returns the IN state of every node.

    ``transfer`` must be monotone in the label sets; since labels are
    drawn from a finite alphabet and join is union, the fixpoint
    terminates.
    """
    in_states: Dict[int, State] = {cfg.entry: dict(init)}
    out_states: Dict[int, State] = {}
    work = deque([cfg.entry])
    while work:
        idx = work.popleft()
        node = cfg.nodes[idx]
        state_in = in_states.get(idx, {})
        if node.stmt is None:
            state_out = dict(state_in)
        else:
            state_out = transfer(node.stmt, dict(state_in))
        if out_states.get(idx) == state_out and idx in out_states:
            continue
        out_states[idx] = state_out
        for succ in node.succs:
            merged = join_states(in_states.get(succ, {}), state_out)
            if merged != in_states.get(succ):
                in_states[succ] = merged
                if succ not in work:
                    work.append(succ)
    return in_states


# ---------------------------------------------------------------------------
# Variable keys
# ---------------------------------------------------------------------------


def var_key(expr: ast.AST) -> Optional[str]:
    """Abstract-state key for an lvalue-ish expression.

    ``x`` -> ``"x"``; ``self.attr`` -> ``"self.attr"``; anything else
    (subscripts, chained attributes, calls) has no key and is untracked.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return "self." + expr.attr
    return None


def assign_pairs(
    targets: Sequence[ast.expr], value: Optional[ast.expr]
) -> List[Tuple[ast.expr, Optional[ast.expr]]]:
    """(target, rhs) pairs for an assignment, unpacking parallel tuples.

    ``a, b = f(), g()`` pairs element-wise; ``a, b = pair`` pairs both
    targets with the whole RHS (its labels flow into each element).
    """
    pairs: List[Tuple[ast.expr, Optional[ast.expr]]] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                for t, v in zip(target.elts, value.elts):
                    pairs.extend(assign_pairs([t], v))
            else:
                for t in target.elts:
                    pairs.extend(assign_pairs([t], value))
        elif isinstance(target, ast.Starred):
            pairs.extend(assign_pairs([target.value], value))
        else:
            pairs.append((target, value))
    return pairs


# ---------------------------------------------------------------------------
# Taint instantiation
# ---------------------------------------------------------------------------


class TaintTracker:
    """Forward taint over one function; rules override the two hooks.

    State keys are locals and ``self.attr`` pseudo-locals.  The default
    expression evaluator unions labels through arithmetic, boolean ops,
    conditionals, collections and subscripts; calls and fresh atoms are
    delegated to the hooks.
    """

    # -- semantic hooks (override in rules) -----------------------------
    def atom_labels(self, node: ast.AST, state: State) -> FrozenSet[str]:
        """Labels of a Name/Attribute not present in the state."""
        return frozenset()

    def call_labels(
        self,
        node: ast.Call,
        arg_labels: List[FrozenSet[str]],
        state: State,
    ) -> FrozenSet[str]:
        """Labels of a call's return value (sanitizers go here)."""
        return frozenset()

    def binop_labels(
        self, node: ast.BinOp, left: FrozenSet[str], right: FrozenSet[str]
    ) -> FrozenSet[str]:
        """Labels of a binary operation result (default: union)."""
        return left | right

    # -- evaluation ------------------------------------------------------
    def eval_expr(self, node: Optional[ast.AST], state: State) -> FrozenSet[str]:
        if node is None:
            return frozenset()
        if isinstance(node, (ast.Name, ast.Attribute)):
            key = var_key(node)
            if key is not None and key in state:
                return state[key]
            return self.atom_labels(node, state)
        if isinstance(node, ast.Constant):
            return frozenset()
        if isinstance(node, ast.Call):
            arg_labels = [self.eval_expr(a, state) for a in node.args]
            arg_labels.extend(
                self.eval_expr(kw.value, state) for kw in node.keywords
            )
            return self.call_labels(node, arg_labels, state)
        if isinstance(node, ast.BinOp):
            return self.binop_labels(
                node,
                self.eval_expr(node.left, state),
                self.eval_expr(node.right, state),
            )
        if isinstance(node, ast.UnaryOp):
            return self.eval_expr(node.operand, state)
        if isinstance(node, ast.IfExp):
            return self.eval_expr(node.body, state) | self.eval_expr(
                node.orelse, state
            )
        if isinstance(node, ast.BoolOp):
            out: FrozenSet[str] = frozenset()
            for v in node.values:
                out |= self.eval_expr(v, state)
            return out
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = frozenset()
            for e in node.elts:
                out |= self.eval_expr(e, state)
            return out
        if isinstance(node, ast.Dict):
            out = frozenset()
            for v in node.values:
                if v is not None:
                    out |= self.eval_expr(v, state)
            return out
        if isinstance(node, ast.Subscript):
            # An element carries (at most) its collection's labels.
            return self.eval_expr(node.value, state)
        if isinstance(node, ast.Starred):
            return self.eval_expr(node.value, state)
        if isinstance(node, ast.Compare):
            return frozenset()  # result is a bool, never a tracked value
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return frozenset()
        if isinstance(node, ast.NamedExpr):
            return self.eval_expr(node.value, state)
        # Lambdas, comprehensions, yields...: untracked.
        return frozenset()

    # -- statement transfer ---------------------------------------------
    def transfer(self, stmt: Optional[ast.stmt], state: State) -> State:
        if stmt is None:
            return state
        if isinstance(stmt, ast.Assign):
            labels = None
            for target, value in assign_pairs(stmt.targets, stmt.value):
                key = var_key(target)
                if key is None:
                    continue
                labels = self.eval_expr(value, state)
                state[key] = labels
            return state
        if isinstance(stmt, ast.AnnAssign):
            key = var_key(stmt.target)
            if key is not None and stmt.value is not None:
                state[key] = self.eval_expr(stmt.value, state)
            return state
        if isinstance(stmt, ast.AugAssign):
            key = var_key(stmt.target)
            if key is not None:
                current = state.get(key)
                if current is None:
                    current = self.atom_labels(stmt.target, state)
                state[key] = current | self.eval_expr(stmt.value, state)
            return state
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_labels = self.eval_expr(stmt.iter, state)
            for target, _ in assign_pairs([stmt.target], None):
                key = var_key(target)
                if key is not None:
                    state[key] = iter_labels | self.atom_labels(target, state)
            return state
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is None:
                    continue
                labels = self.eval_expr(item.context_expr, state)
                for target, _ in assign_pairs([item.optional_vars], None):
                    key = var_key(target)
                    if key is not None:
                        state[key] = labels
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                key = var_key(target)
                if key is not None:
                    state.pop(key, None)
            return state
        return state

    # -- driver ----------------------------------------------------------
    def analyse(self, fn: ast.AST, init: Optional[State] = None):
        """CFG + fixpoint for one function; returns (cfg, node -> IN state)."""
        cfg = build_cfg(fn)
        in_states = run_forward(cfg, init or {}, self.transfer)
        return cfg, in_states


def iter_functions(tree: ast.AST) -> Iterator[Tuple[Optional[str], ast.AST]]:
    """Every (enclosing class name, function def) in a module, outer first."""
    stack: List[Tuple[Optional[str], ast.AST]] = [(None, tree)]
    while stack:
        cls, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child.name, child))
            elif isinstance(child, FunctionNode):
                yield cls, child
                stack.append((cls, child))
