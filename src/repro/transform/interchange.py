"""Loop interchange, including the Sec. 3.1 non-rectangular bound rewrites.

Legality is decided in the *actual* iteration space via the
Fourier–Motzkin feasibility test (:mod:`repro.analysis.feasibility`): the
interchange of adjacent loops (O, J) is illegal exactly when some
dependence can be realized with direction ``(=, ..., =, <, >)`` on the
loops up to and including (O, J).  Testing in the true space (bounds
included) is what lets block LU's KK loop sink inside the I loop — the
rectangular-hull vector looks like (<, >) but the triangular coupling
``I >= KK+1`` makes it infeasible.  :func:`swap_witnesses` is that rule
and :func:`written_bound` the bound rule, once each: unroll-and-jam, the
``legal/interchange-*`` and ``legal/jam-carried-race`` checks and the
blockability linter all ask them.

Bound rewrites implement the paper's derivation:

- rectangular: plain swap;
- triangular (``lo`` or ``hi`` = ``alpha*O + beta``, Fig. 1): the formula
  of Sec. 3.1, e.g. ::

      DO O = lo,hi                 DO J = alpha*lo+beta, M
        DO J = alpha*O+beta, M  ->   DO O = lo, MIN((J-beta)/alpha, hi)

  with the symmetric cases for a coupled upper bound and for
  ``alpha = -1`` ("trivially extended", per the paper, to other signs);
- rhomboidal (both bounds coupled with equal unit slope): both MIN and
  MAX clamps appear ([Car92]).

Trapezoidal bounds are *not* handled here — Sec. 3.2 splits them into
triangular + rectangular pieces first (see
:func:`repro.transform.index_set_split.split_trapezoid`, one builder for
the MIN and MAX cases).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.dependence import Dependence, DependenceKind
from repro.analysis.feasibility import direction_feasible
from repro.analysis.refs import collect_accesses
from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.errors import TransformError
from repro.ir.expr import Const, Expr, Var, free_vars, smax, smin
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Assign, Loop, Procedure
from repro.ir.visit import replace_loop, walk_stmts
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import simplify
from repro.transform.base import floor_div, sole_inner_loop


def swap_witnesses(proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions):
    """Yield, for every access pair under ``inner`` with a dependence
    realizable as ``(=, ..., =, <, >)`` at (outer, inner), that edge
    (entries the rule leaves open are ``*``): each one swapping the two
    loops (or jamming unrolled ``outer`` iterations inside ``inner``)
    would reverse.  Lazy, so a caller that needs one asks for the first."""
    accs = [a for a in collect_accesses(proc) if any(l is inner for l in a.loops)]
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            a, b = accs[i], accs[j]
            if a.array != b.array or not (a.is_write or b.is_write):
                continue
            common = a.common_loops(b)
            try:
                p = next(k for k, l in enumerate(common) if l is outer)
                q = next(k for k, l in enumerate(common) if l is inner)
            except StopIteration:  # two instances of a shared (split) body
                continue
            dirs = ["*"] * len(common)
            for k in range(p):
                dirs[k] = "="
            dirs[p], dirs[q] = "<", ">"
            if direction_feasible(a, b, dirs, common, ctx):
                src, snk = a, b
            elif a is not b and direction_feasible(b, a, dirs, common, ctx):
                src, snk = b, a
            else:
                continue
            yield Dependence(
                src, snk, DependenceKind.of(src.is_write, snk.is_write), common,
                tuple(0 if d == "=" else None for d in dirs), tuple(dirs),
            )


def written_bound(outer: Loop, inner: Loop) -> Optional[tuple[Expr, list[str]]]:
    """The first bound of ``outer`` or ``inner`` that reads scalars the
    nest writes, with those scalars sorted, or None when there is none:
    the swap would move the bound past its writes."""
    written = {
        s.target.name
        for s in walk_stmts(outer)
        if isinstance(s, Assign) and isinstance(s.target, Var)
    }
    for e in (outer.lo, outer.hi, inner.lo, inner.hi):
        clash = free_vars(e) & written
        if clash:
            return e, sorted(clash)
    return None


def written_bound_message(bound: Expr, clash: list[str]) -> str:
    return f"loop bound {fmt_expr(bound)} uses scalars written in the nest: {clash}"


def check_interchange_legal(
    proc: Procedure, outer: Loop, inner: Loop, ctx: Assumptions
) -> None:
    """Raise TransformError when the (outer, inner) swap is illegal: a
    bound computed inside the nest, or a dependence (see module docstring
    for the criterion)."""
    bound = written_bound(outer, inner)
    if bound is not None:
        raise TransformError(written_bound_message(*bound))
    dep = next(swap_witnesses(proc, outer, inner, ctx), None)
    if dep is not None:
        raise TransformError(
            f"interchange of {outer.var}/{inner.var} violates a dependence on {dep.array}"
        )


def _ceil_div(num: Expr, alpha: int, ctx: Assumptions) -> Expr:
    """``ceil(num / alpha) = floor((num + alpha - 1) / alpha)``."""
    return num if alpha == 1 else floor_div(num + Const(alpha - 1), alpha, ctx)


def interchange(
    proc: Procedure,
    outer: Loop,
    ctx: Optional[Assumptions] = None,
) -> Procedure:
    """Swap ``outer`` with the loop it immediately (and solely) contains."""
    ctx = ctx or Assumptions()
    inner = sole_inner_loop(outer)
    if inner is None:
        raise TransformError(f"loop {outer.var} is not perfectly nested")
    if outer.step != Const(1) or inner.step != Const(1):
        raise TransformError("interchange requires unit steps")
    check_interchange_legal(proc, outer, inner, ctx)

    O, lo_o, hi_o = outer.var, outer.lo, outer.hi
    shape = classify_loop_shape(inner, O)
    body = inner.body

    def build(j_lo: Expr, j_hi: Expr, o_lo: Expr, o_hi: Expr) -> Loop:
        return Loop(
            inner.var,
            simplify(j_lo, ctx),
            simplify(j_hi, ctx),
            (Loop(O, simplify(o_lo, ctx), simplify(o_hi, ctx), body),),
        )

    if shape.kind == LoopShape.RECTANGULAR:
        new = build(inner.lo, inner.hi, lo_o, hi_o)
    elif shape.kind == LoopShape.TRIANGULAR_LO:
        a, beta = shape.lo.alpha, shape.lo.beta
        if a > 0:
            # J >= a*O + beta  =>  O <= (J - beta) / a.  In the rewritten
            # nest J starts at a*lo_o + beta, so J - beta >= a*lo_o — a
            # fact the floor-division rewrite may need.
            ctx = ctx.copy().assume_ge(Var(inner.var), Const(a) * lo_o + beta)
            new = build(
                Const(a) * lo_o + beta,
                inner.hi,
                lo_o,
                smin(floor_div(Var(inner.var) - beta, a, ctx), hi_o),
            )
        elif a == -1:
            # J >= beta - O  =>  O >= beta - J
            new = build(
                beta - hi_o,
                inner.hi,
                smax(beta - Var(inner.var), lo_o),
                hi_o,
            )
        else:
            raise TransformError(f"triangular interchange: alpha={a} < -1 unsupported")
    elif shape.kind == LoopShape.TRIANGULAR_HI:
        a, beta = shape.hi.alpha, shape.hi.beta
        if a > 0:
            # J <= a*O + beta  =>  O >= ceil((J - beta) / a); the rewritten
            # J never goes below the (invariant) original lower bound.
            ctx = ctx.copy().assume_ge(Var(inner.var), inner.lo)
            new = build(
                inner.lo,
                Const(a) * hi_o + beta,
                smax(_ceil_div(Var(inner.var) - beta, a, ctx), lo_o),
                hi_o,
            )
        elif a == -1:
            # J <= beta - O  =>  O <= beta - J
            new = build(
                inner.lo,
                beta - lo_o,
                lo_o,
                smin(beta - Var(inner.var), hi_o),
            )
        else:
            raise TransformError(f"triangular interchange: alpha={a} < -1 unsupported")
    elif shape.kind == LoopShape.RHOMBOIDAL:
        a = shape.lo.alpha
        b_lo, b_hi = shape.lo.beta, shape.hi.beta
        if a == 1:
            new = build(
                lo_o + b_lo,
                hi_o + b_hi,
                smax(lo_o, Var(inner.var) - b_hi),
                smin(hi_o, Var(inner.var) - b_lo),
            )
        elif a == -1:
            new = build(
                b_lo - hi_o,
                b_hi - lo_o,
                smax(lo_o, b_lo - Var(inner.var)),
                smin(hi_o, b_hi - Var(inner.var)),
            )
        else:
            raise TransformError(f"rhomboidal interchange: |alpha| != 1 unsupported")
    elif shape.kind in (LoopShape.TRAPEZOIDAL_MIN, LoopShape.TRAPEZOIDAL_MAX):
        raise TransformError(
            f"loop {inner.var} is trapezoidal in {O}; index-set split it "
            "first (Sec. 3.2)"
        )
    else:
        raise TransformError(f"cannot interchange {O} with {inner.var}: bounds not analyzable")

    return replace_loop(proc, outer, new)
