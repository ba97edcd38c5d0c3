"""Shared helpers for transformations."""

from __future__ import annotations

from typing import Sequence

from repro.errors import TransformError
from repro.ir.expr import ArrayRef, Const, Expr, IntDiv, Var
from repro.ir.stmt import Comment, Loop, Procedure, Stmt
from repro.ir.visit import walk_exprs, walk_stmts
from repro.symbolic.assume import Assumptions


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


def floor_div(num: Expr, alpha: int, ctx: Assumptions) -> Expr:
    """``floor(num / alpha)`` for ``alpha >= 1``.  Fortran ``/`` truncates
    toward zero, which floors only a nonnegative numerator: anything the
    context cannot prove nonnegative is refused."""
    if alpha == 1:
        return num
    if ctx.is_nonneg(num) is not True:
        raise TransformError(
            f"dividing {num!r} by {alpha} needs a provably nonnegative "
            "numerator (Fortran division truncates toward zero)"
        )
    return IntDiv(num, Const(alpha))
