"""Assumption contexts derived from loop structure.

Inside the body of ``DO V = lo, hi`` the facts ``lo <= V <= hi`` hold (the
body only executes for in-range values), with MAX lower bounds and MIN
upper bounds contributing one fact per arm.  Blocking drivers build their
contexts here, then add problem facts (``KS >= 2``, ``N >= KS`` ...) on
top.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.ir.expr import BinOp, Call, Expr, Max, Min
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.ir.visit import loop_path
from repro.symbolic.affine import to_affine
from repro.symbolic.assume import Assumptions


def _strip_mod_terms(e):
    """Drop ``+ MOD(...)`` terms from a lower-bound expression.

    Unroll-and-jam writes its main-loop lower bound as
    ``lo + MOD(trips, u)``; for any iteration that actually executes,
    ``trips >= 0`` so ``MOD(trips, u) >= 0`` and ``var >= lo`` still holds
    (facts are consulted only about executing iterations, so the empty-loop
    case is vacuous)."""
    if isinstance(e, BinOp) and e.op == "+":
        if isinstance(e.right, Call) and e.right.name == "MOD":
            return _strip_mod_terms(e.left)
        if isinstance(e.left, Call) and e.left.name == "MOD":
            return _strip_mod_terms(e.right)
        return BinOp("+", _strip_mod_terms(e.left), _strip_mod_terms(e.right))
    return e


def bound_arms(loop: Loop) -> Iterator[tuple[bool, tuple[Expr, ...]]]:
    """``lo <= loop.var <= hi`` arm by arm, as ``(is_lower, arms)``.

    One arm is a conjunct: it bounds the variable on its own (a plain
    bound, or an arm of a MAX lower / MIN upper bound, nested freely).
    Several arms are a disjunction (MIN lower / MAX upper bound): only
    some arm is known to hold.  Lower arms come first, with their
    ``+ MOD(...)`` terms dropped."""

    def walk(e: Expr, conj: type, disj: type):
        if isinstance(e, conj):
            for a in e.args:
                yield from walk(a, conj, disj)
        else:
            yield e.args if isinstance(e, disj) else (e,)

    for arms in walk(loop.lo, Max, Min):
        yield True, tuple(_strip_mod_terms(a) for a in arms)
    for arms in walk(loop.hi, Min, Max):
        yield False, arms


def add_loop_facts(ctx: Assumptions, loop: Loop) -> None:
    """Record ``lo <= loop.var <= hi`` (arm-wise through MAX/MIN)."""
    for is_lower, arms in bound_arms(loop):
        if len(arms) == 1 and to_affine(arms[0]) is not None:
            (ctx.assume_ge if is_lower else ctx.assume_le)(loop.var, arms[0])


def context_for_path(
    root: Procedure | Stmt | Sequence[Stmt],
    target: Loop,
    base: Optional[Assumptions] = None,
) -> Assumptions:
    """Facts for the loops *enclosing* ``target`` (inclusive).

    Sound regardless of sibling loops: only the unique root-to-target path
    contributes, which is exactly the set of variables with well-defined
    values while ``target`` executes.
    """
    ctx = base.copy() if base is not None else Assumptions()
    for l in loop_path(root, target):
        add_loop_facts(ctx, l)
    return ctx
