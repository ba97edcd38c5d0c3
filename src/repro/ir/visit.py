"""Traversal and rewriting infrastructure for the IR.

Three layers:

- :func:`walk_stmts` / :func:`walk_exprs`: flat generators for analyses.
- :class:`NodeVisitor`: read-only dispatch by node class.
- :class:`NodeTransformer`: rebuild-on-change rewriting; returning a list of
  statements from a statement visit splices (used by loop distribution and
  index-set splitting, which turn one loop into several).

Plus the workhorses :func:`substitute` (capture-free variable substitution —
induction variables are the only binders and the callers rename first) and
:func:`replace_loop` (swap one loop, identified by object identity or by
induction variable, for replacement statements).
"""

from __future__ import annotations

from dataclasses import replace as _dc_replace
from typing import Iterable, Iterator, Mapping, Sequence, Union

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    IntDiv,
    LogicalOp,
    Max,
    Min,
    Not,
    Var,
)
from repro.ir.stmt import (
    Assign,
    BlockLoop,
    Comment,
    If,
    InLoop,
    Loop,
    Procedure,
    Stmt,
    _as_body,
)

BodyLike = Union[Stmt, Sequence[Stmt], Procedure]


def _bodies(node: Stmt) -> tuple[tuple[Stmt, ...], ...]:
    if isinstance(node, (Loop, BlockLoop, InLoop)):
        return (node.body,)
    if isinstance(node, If):
        return (node.then, node.els)
    return ()


def walk_stmts(root: BodyLike) -> Iterator[Stmt]:
    """Yield every statement in pre-order (root included if a Stmt)."""
    if isinstance(root, Procedure):
        stack = list(reversed(root.body))
    elif isinstance(root, Stmt):
        stack = [root]
    else:
        stack = list(reversed(list(root)))
    while stack:
        node = stack.pop()
        yield node
        for body in reversed(_bodies(node)):
            stack.extend(reversed(body))


def stmt_exprs(stmt: Stmt) -> Iterator[Expr]:
    """The expressions directly owned by one statement (no recursion into
    child statements)."""
    if isinstance(stmt, Assign):
        yield stmt.target
        yield stmt.value
    elif isinstance(stmt, Loop):
        yield stmt.lo
        yield stmt.hi
        yield stmt.step
    elif isinstance(stmt, BlockLoop):
        yield stmt.lo
        yield stmt.hi
    elif isinstance(stmt, InLoop):
        if stmt.lo is not None:
            yield stmt.lo
        if stmt.hi is not None:
            yield stmt.hi
    elif isinstance(stmt, If):
        yield stmt.cond


def walk_exprs(root: BodyLike | Expr) -> Iterator[Expr]:
    """Yield every expression node across a statement tree or a single
    expression, each node before its children.  The order is not
    left-to-right: children come right to left, and the last statement's
    expressions first — match nodes by identity or structure, never by
    position."""
    pending: list[Expr] = []
    if isinstance(root, Expr):
        pending.append(root)
    else:
        for stmt in walk_stmts(root):
            pending.extend(stmt_exprs(stmt))
    while pending:
        e = pending.pop()
        yield e
        if isinstance(e, (BinOp, IntDiv, Compare)):
            pending.append(e.left)
            pending.append(e.right)
        elif isinstance(e, (Min, Max, Call, LogicalOp)):
            pending.extend(e.args)
        elif isinstance(e, Not):
            pending.append(e.arg)
        elif isinstance(e, ArrayRef):
            pending.extend(e.index)


def array_refs(root: BodyLike | Expr) -> Iterator[ArrayRef]:
    """Every ArrayRef in the tree (loads and stores alike)."""
    for e in walk_exprs(root):
        if isinstance(e, ArrayRef):
            yield e


def find_loops(root: BodyLike) -> list[Loop]:
    """All Loop nodes in pre-order (outermost first)."""
    return [s for s in walk_stmts(root) if isinstance(s, Loop)]


def loop_by_var(root: BodyLike, var: str) -> Loop:
    """The unique loop with induction variable ``var``.

    Raises KeyError when absent, ValueError when ambiguous.
    """
    hits = [l for l in find_loops(root) if l.var == var]
    if not hits:
        raise KeyError(f"no loop over {var!r}")
    if len(hits) > 1:
        raise ValueError(f"multiple loops over {var!r}")
    return hits[0]


class NodeVisitor:
    """Read-only visitor; override ``visit_<Class>`` methods.

    ``generic_visit`` recurses into child statements only — visit
    expressions explicitly where needed.
    """

    def visit(self, node: Stmt) -> None:
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            method(node)
        else:
            self.generic_visit(node)

    def generic_visit(self, node: Stmt) -> None:
        for body in _bodies(node):
            for child in body:
                self.visit(child)

    def visit_body(self, body: Iterable[Stmt]) -> None:
        for stmt in body:
            self.visit(stmt)


class NodeTransformer:
    """Rebuilding transformer.

    ``visit`` on a statement may return a Stmt, a list/tuple of Stmts
    (spliced into the parent body), or None (drop).  Expression rewriting is
    available through ``visit_expr``, applied bottom-up when
    ``rewrite_exprs`` is True.
    """

    rewrite_exprs = False

    def transform_procedure(self, proc: Procedure) -> Procedure:
        return proc.with_body(self.visit_body(proc.body))

    def visit_body(self, body: Sequence[Stmt]) -> tuple[Stmt, ...]:
        out: list[Stmt] = []
        for stmt in body:
            result = self.visit(stmt)
            if result is None:
                continue
            if isinstance(result, Stmt):
                out.append(result)
            else:
                out.extend(result)
        return tuple(out)

    def visit(self, node: Stmt):
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is not None:
            return method(node)
        return self.generic_visit(node)

    def generic_visit(self, node: Stmt):
        if isinstance(node, Loop):
            # dataclasses.replace keeps the concrete class (ParallelLoop
            # markers and their ``kind`` survive generic rewrites).
            new = _dc_replace(
                node,
                lo=self._expr(node.lo),
                hi=self._expr(node.hi),
                body=self.visit_body(node.body),
                step=self._expr(node.step),
            )
        elif isinstance(node, BlockLoop):
            new = BlockLoop(node.var, self._expr(node.lo), self._expr(node.hi), self.visit_body(node.body))
        elif isinstance(node, InLoop):
            new = InLoop(
                node.block_var,
                node.var,
                self.visit_body(node.body),
                lo=None if node.lo is None else self._expr(node.lo),
                hi=None if node.hi is None else self._expr(node.hi),
            )
        elif isinstance(node, If):
            new = If(self._expr(node.cond), self.visit_body(node.then), self.visit_body(node.els))
        elif isinstance(node, Assign):
            tgt = self._expr(node.target)
            if not isinstance(tgt, (ArrayRef, Var)):
                raise TypeError("expression rewrite produced an invalid assign target")
            new = Assign(tgt, self._expr(node.value), label=node.label)
        else:
            new = node
        return new

    # -- expression side -------------------------------------------------
    def _expr(self, e: Expr) -> Expr:
        if not self.rewrite_exprs:
            return e
        return self._rebuild_expr(e)

    def _rebuild_expr(self, e: Expr) -> Expr:
        if isinstance(e, (Const, Var)):
            rebuilt = e
        elif isinstance(e, BinOp):
            rebuilt = BinOp(e.op, self._rebuild_expr(e.left), self._rebuild_expr(e.right))
        elif isinstance(e, IntDiv):
            rebuilt = IntDiv(self._rebuild_expr(e.left), self._rebuild_expr(e.right))
        elif isinstance(e, Compare):
            rebuilt = Compare(e.op, self._rebuild_expr(e.left), self._rebuild_expr(e.right))
        elif isinstance(e, Min):
            rebuilt = Min(tuple(self._rebuild_expr(a) for a in e.args))
        elif isinstance(e, Max):
            rebuilt = Max(tuple(self._rebuild_expr(a) for a in e.args))
        elif isinstance(e, Call):
            rebuilt = Call(e.name, tuple(self._rebuild_expr(a) for a in e.args))
        elif isinstance(e, LogicalOp):
            rebuilt = LogicalOp(e.op, tuple(self._rebuild_expr(a) for a in e.args))
        elif isinstance(e, Not):
            rebuilt = Not(self._rebuild_expr(e.arg))
        elif isinstance(e, ArrayRef):
            rebuilt = ArrayRef(e.array, tuple(self._rebuild_expr(a) for a in e.index))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown Expr node {type(e).__name__}")
        return self.visit_expr(rebuilt)

    def visit_expr(self, e: Expr) -> Expr:
        return e


class _Substituter(NodeTransformer):
    rewrite_exprs = True

    def __init__(self, mapping: Mapping[str, Expr]):
        self.mapping = mapping

    def visit_expr(self, e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in self.mapping:
            return self.mapping[e.name]
        return e


def substitute(node: Stmt | Expr | Sequence[Stmt], mapping: Mapping[str, Expr]) -> Stmt | Expr | tuple[Stmt, ...]:
    """Replace free scalar variables by expressions, everywhere.

    No capture analysis is performed: induction variables are the only
    binders in this IR and callers rename them (``rename_loop_var``) before
    substituting across a binder.  Substituting a loop's own induction
    variable raises, as that is always a bug.
    """
    sub = _Substituter(dict(mapping))
    if isinstance(node, Expr):
        return sub._rebuild_expr(node)
    if isinstance(node, Stmt):
        for stmt in walk_stmts(node):
            if isinstance(stmt, Loop) and stmt.var in mapping:
                raise ValueError(f"substitution would capture induction variable {stmt.var!r}")
        out = sub.visit_body((node,))
        if len(out) != 1:  # pragma: no cover - _Substituter is 1->1
            raise AssertionError("substitution changed statement arity")
        return out[0]
    for stmt in node:
        for inner in walk_stmts(stmt):
            if isinstance(inner, Loop) and inner.var in mapping:
                raise ValueError(f"substitution would capture induction variable {inner.var!r}")
    return sub.visit_body(tuple(node))


def rename_loop_var(loop: Loop, new_var: str) -> Loop:
    """Rename a loop's induction variable consistently through its body."""
    body = substitute(loop.body, {loop.var: Var(new_var)})
    return _dc_replace(loop, var=new_var, body=_as_body(body))


class _LoopReplacer(NodeTransformer):
    def __init__(self, target: Loop, replacement: Sequence[Stmt]):
        self.target = target
        self.replacement = tuple(replacement)
        self.count = 0

    def visit_Loop(self, node: Loop):
        if node is self.target or node == self.target:
            self.count += 1
            return list(self.replacement)
        return self.generic_visit(node)


def replace_loop(root: Procedure, target: Loop, replacement: Stmt | Sequence[Stmt]) -> Procedure:
    """Return ``root`` with ``target`` swapped for ``replacement``.

    Matching is by identity first, structural equality second; exactly one
    occurrence must match.
    """
    if isinstance(replacement, Stmt):
        replacement = (replacement,)
    rep = _LoopReplacer(target, replacement)
    new = rep.transform_procedure(root)
    if rep.count != 1:
        raise ValueError(f"replace_loop matched {rep.count} loops (expected exactly 1)")
    return new


def loop_path(root: BodyLike, target: Loop) -> list[Loop]:
    """Loops enclosing ``target`` from outermost to ``target`` itself.

    Raises KeyError when the loop is not in the tree.
    """

    def search(body: Sequence[Stmt], trail: list[Loop]) -> list[Loop] | None:
        for stmt in body:
            if isinstance(stmt, Loop):
                new_trail = trail + [stmt]
                if stmt is target or stmt == target:
                    return new_trail
                found = search(stmt.body, new_trail)
                if found is not None:
                    return found
            elif isinstance(stmt, (BlockLoop, InLoop)):
                found = search(stmt.body, trail)
                if found is not None:
                    return found
            elif isinstance(stmt, If):
                found = search(stmt.then, trail) or search(stmt.els, trail)
                if found is not None:
                    return found
        return None

    if isinstance(root, Procedure):
        body: Sequence[Stmt] = root.body
    elif isinstance(root, Stmt):
        body = (root,)
    else:
        body = tuple(root)
    found = search(body, [])
    if found is None:
        raise KeyError("loop not found in tree")
    return found


class _LabelStripper(NodeTransformer):
    def visit_Loop(self, node: Loop):
        new = self.generic_visit(node)
        if isinstance(new, Loop) and new.label is not None:
            new = _dc_replace(new, label=None)
        return new

    def visit_Assign(self, node: Assign):
        if node.label is not None:
            return _dc_replace(node, label=None)
        return node


def strip_labels(root: Procedure | Stmt | Sequence[Stmt]):
    """Drop Fortran statement labels (parser metadata) so parsed listings
    compare structurally against programmatically built IR."""
    stripper = _LabelStripper()
    if isinstance(root, Procedure):
        return stripper.transform_procedure(root)
    if isinstance(root, Stmt):
        out = stripper.visit_body((root,))
        return out[0]
    return stripper.visit_body(tuple(root))
