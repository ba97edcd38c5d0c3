"""Shared helpers for transformations."""

from __future__ import annotations

from typing import Sequence

from repro.ir.expr import ArrayRef, Expr, Var
from repro.ir.stmt import Comment, Loop, Procedure, Stmt
from repro.ir.visit import walk_exprs, walk_stmts


def used_names(proc: Procedure | Stmt | Sequence[Stmt]) -> set[str]:
    """Every identifier in scope: loop variables, scalars, arrays, params."""
    names: set[str] = set()
    if isinstance(proc, Procedure):
        names |= set(proc.params)
        names |= {a.name for a in proc.arrays}
    for e in walk_exprs(proc):
        if isinstance(e, Var):
            names.add(e.name)
        if isinstance(e, ArrayRef):
            names.add(e.array)
    for s in walk_stmts(proc):
        if isinstance(s, Loop):
            names.add(s.var)
    return names


def fresh_var(base: str, taken: set[str], style: str = "double") -> str:
    """A new variable name in the paper's style.

    'double' turns ``I`` into ``II`` and ``K`` into ``KK``; 'plain' tries
    the base name itself first.  Numbered suffixes are the unbounded
    fallback.  The chosen name is added to ``taken``.
    """
    first = (base * 2 if len(base) == 1 else base + base[-1]) \
        if style == "double" else base
    if first not in taken:
        taken.add(first)
        return first
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    name = f"{base}{k}"
    taken.add(name)
    return name


def non_comment(body: Sequence[Stmt]) -> list[Stmt]:
    return [s for s in body if not isinstance(s, Comment)]


def sole_inner_loop(loop: Loop) -> Loop | None:
    """The single Loop making up ``loop``'s body (comments ignored), else
    None — the perfect-nesting test interchange needs."""
    body = non_comment(loop.body)
    if len(body) == 1 and isinstance(body[0], Loop):
        return body[0]
    return None
