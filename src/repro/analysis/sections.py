"""Bounded regular section analysis (Havlak–Kennedy; paper Sec. 2.1).

A *section* describes the portion of an array touched by a reference over
the execution of a loop region, in Fortran-90 triplet notation — precise
enough, the paper argues (Sec. 3.3), "to relate the locations in the array
to index variable values", which is what Procedure IndexSetSplit needs.

The central computation, :func:`expr_range`, turns an affine subscript plus
a nest of symbolic index ranges into symbolic lower/upper bound expressions
by sign-directed substitution (inner variables eliminated first, since
inner loop bounds mention outer variables).  MIN/MAX bounds propagate
structurally.  All comparisons are delegated to the
:class:`~repro.symbolic.assume.Assumptions` context, and every set-algebra
answer is three-valued: True / False / None ("can't tell" — treated
conservatively by callers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.analysis.refs import RefAccess
from repro.errors import AnalysisError
from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    IntDiv,
    Max,
    Min,
    Var,
    add,
    mul,
    smax,
    smin,
    sub,
)
from repro.ir.stmt import Loop
from repro.symbolic.affine import to_affine
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import prove_eq, prove_le, prove_lt, simplify


@dataclass(frozen=True)
class Triplet:
    """One dimension of a section: ``lo : hi : step`` (inclusive bounds)."""

    lo: Expr
    hi: Expr
    step: Expr = Const(1)

    def pretty(self) -> str:
        from repro.ir.pretty import fmt_expr

        s = "" if self.step == Const(1) else f":{fmt_expr(self.step)}"
        return f"{fmt_expr(self.lo)}:{fmt_expr(self.hi)}{s}"


@dataclass(frozen=True)
class Section:
    """A rectangular (per-dimension triplet) array section."""

    array: str
    dims: tuple[Triplet, ...]

    def pretty(self) -> str:
        return f"{self.array}({', '.join(t.pretty() for t in self.dims)})"


Ranges = Mapping[str, tuple[Expr, Expr]]


def expr_range(e: Expr, ranges: Ranges, ctx: Optional[Assumptions] = None) -> Optional[tuple[Expr, Expr]]:
    """Symbolic [lo, hi] of ``e`` as the variables in ``ranges`` sweep their
    (inclusive) ranges.  Variables not in ``ranges`` stay symbolic.
    Returns None when ``e`` is outside the supported (affine + MIN/MAX)
    class.  Answered once per (``e``, ``ranges``) under one context
    (:meth:`Assumptions.memo`)."""
    ctx = ctx or Assumptions()
    key = ("expr_range", e, tuple(ranges.items()))
    return ctx.memo(key, lambda: _expr_range_uncached(e, ranges, ctx))


def _expr_range_uncached(e: Expr, ranges: Ranges, ctx: Assumptions) -> Optional[tuple[Expr, Expr]]:
    def rng(expr: Expr, remaining: dict[str, tuple[Expr, Expr]]) -> Optional[tuple[Expr, Expr]]:
        if isinstance(expr, Const):
            return expr, expr
        if isinstance(expr, Var):
            if expr.name in remaining:
                lo_e, hi_e = remaining[expr.name]
                rest = {k: v for k, v in remaining.items() if k != expr.name}
                lo_r = rng(lo_e, rest)
                hi_r = rng(hi_e, rest)
                if lo_r is None or hi_r is None:
                    return None
                return lo_r[0], hi_r[1]
            return expr, expr
        if isinstance(expr, BinOp) and expr.op in ("+", "-"):
            l = rng(expr.left, remaining)
            r = rng(expr.right, remaining)
            if l is None or r is None:
                return None
            if expr.op == "+":
                return add(l[0], r[0]), add(l[1], r[1])
            return sub(l[0], r[1]), sub(l[1], r[0])
        if isinstance(expr, BinOp) and expr.op == "*":
            # constant * expr only (affine class)
            for c_side, v_side in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(c_side, Const) and isinstance(c_side.value, int):
                    v = rng(v_side, remaining)
                    if v is None:
                        return None
                    if c_side.value >= 0:
                        return mul(c_side, v[0]), mul(c_side, v[1])
                    return mul(c_side, v[1]), mul(c_side, v[0])
            return None
        if isinstance(expr, IntDiv):
            if isinstance(expr.right, Const) and isinstance(expr.right.value, int) and expr.right.value > 0:
                v = rng(expr.left, remaining)
                if v is None:
                    return None
                return IntDiv(v[0], expr.right), IntDiv(v[1], expr.right)
            return None
        if isinstance(expr, Min):
            parts = [rng(a, remaining) for a in expr.args]
            if any(p is None for p in parts):
                return None
            return smin(*(p[0] for p in parts)), smin(*(p[1] for p in parts))
        if isinstance(expr, Max):
            parts = [rng(a, remaining) for a in expr.args]
            if any(p is None for p in parts):
                return None
            return smax(*(p[0] for p in parts)), smax(*(p[1] for p in parts))
        return None

    got = rng(e, dict(ranges))
    if got is None:
        return None
    return simplify(got[0], ctx), simplify(got[1], ctx)


def ranges_for_loops(loops: Sequence[Loop]) -> dict[str, tuple[Expr, Expr]]:
    """Index ranges (lo, hi) for a stack of loops, usable by
    :func:`expr_range`.  Order does not matter — substitution removes
    variables as it uses them."""
    return {l.var: (l.lo, l.hi) for l in loops}


# Optional memoization hook, installed by repro.pipeline.cache.  Sections
# are frozen trees of Exprs with structural equality, so results can be
# reused across distinct-but-equal access objects.
_memo_hook = None


def section_of_ref(
    acc: RefAccess,
    region_loop: Loop | None = None,
    ctx: Optional[Assumptions] = None,
    extra_ranges: Optional[Ranges] = None,
) -> Optional[Section]:
    """The section of ``acc.array`` touched over the full execution of
    ``region_loop`` (or of the access's whole loop stack when None).

    Loops outside the region stay symbolic: the LU study computes sections
    "for the entire execution of the KK-loop" with K symbolic (Fig. 5).
    """
    region_loops = acc.loops if region_loop is None else acc.loops_from(region_loop)
    if region_loops is None:
        raise AnalysisError("access is not inside the region loop")
    if _memo_hook is not None:
        return _memo_hook(acc, region_loops, ctx, extra_ranges, _section_of_ref_uncached)
    return _section_of_ref_uncached(acc, region_loops, ctx, extra_ranges)


def _section_of_ref_uncached(
    acc: RefAccess,
    region_loops: Sequence[Loop],
    ctx: Optional[Assumptions],
    extra_ranges: Optional[Ranges],
) -> Optional[Section]:
    ranges = ranges_for_loops(region_loops)
    if extra_ranges:
        ranges.update(extra_ranges)
    dims: list[Triplet] = []
    for e in acc.ref.index:
        got = expr_range(e, ranges, ctx)
        if got is None:
            return None
        lo, hi = got
        step = _triplet_step(e, ranges)
        dims.append(Triplet(lo, hi, step))
    return Section(acc.array, tuple(dims))


def _triplet_step(e: Expr, ranges: Ranges) -> Expr:
    """Stride of the subscript as its (single) range variable steps by 1;
    1 (dense hull) when several variables are involved."""
    aff = to_affine(e)
    if aff is None:
        return Const(1)
    involved = [v for v in aff.variables if v in ranges]
    if len(involved) != 1:
        return Const(1)
    c = aff.coeff(involved[0])
    if c.denominator != 1:
        return Const(1)
    return Const(abs(int(c))) if c != 0 else Const(1)


# ---------------------------------------------------------------------------
# three-valued section algebra
# ---------------------------------------------------------------------------

def triplet_contains(outer: Triplet, inner: Triplet, ctx: Assumptions) -> Optional[bool]:
    """outer ⊇ inner on the dense hull (steps ignored — sound for the
    disjointness/overlap questions splitting asks)."""
    if prove_le(outer.lo, inner.lo, ctx) and prove_le(inner.hi, outer.hi, ctx):
        return True
    if prove_lt(inner.lo, outer.lo, ctx) or prove_lt(outer.hi, inner.hi, ctx):
        return False
    return None


def triplet_disjoint(a: Triplet, b: Triplet, ctx: Assumptions) -> Optional[bool]:
    if prove_lt(a.hi, b.lo, ctx) or prove_lt(b.hi, a.lo, ctx):
        return True
    # overlap certain when each lo <= other's hi
    if prove_le(a.lo, b.hi, ctx) and prove_le(b.lo, a.hi, ctx):
        return False
    return None


def triplet_equal(a: Triplet, b: Triplet, ctx: Assumptions) -> Optional[bool]:
    if prove_eq(a.lo, b.lo, ctx) and prove_eq(a.hi, b.hi, ctx):
        return True
    if (
        prove_lt(a.lo, b.lo, ctx)
        or prove_lt(b.lo, a.lo, ctx)
        or prove_lt(a.hi, b.hi, ctx)
        or prove_lt(b.hi, a.hi, ctx)
    ):
        return False
    return None


def section_contains(outer: Section, inner: Section, ctx: Optional[Assumptions] = None) -> Optional[bool]:
    """outer ⊇ inner, three-valued, all dimensions."""
    ctx = ctx or Assumptions()
    if outer.array != inner.array or len(outer.dims) != len(inner.dims):
        return False
    verdict: Optional[bool] = True
    for o, i in zip(outer.dims, inner.dims):
        got = triplet_contains(o, i, ctx)
        if got is False:
            return False
        if got is None:
            verdict = None
    return verdict


def section_disjoint(a: Section, b: Section, ctx: Optional[Assumptions] = None) -> Optional[bool]:
    """Disjoint when provably separated in *some* dimension."""
    ctx = ctx or Assumptions()
    if a.array != b.array:
        return True
    any_unknown = False
    for ta, tb in zip(a.dims, b.dims):
        got = triplet_disjoint(ta, tb, ctx)
        if got is True:
            return True
        if got is None:
            any_unknown = True
    return None if any_unknown else False


def section_intersect(a: Section, b: Section, ctx: Optional[Assumptions] = None) -> Section:
    """Dense-hull intersection (may denote an empty set; check with
    :func:`section_disjoint`)."""
    ctx = ctx or Assumptions()
    if a.array != b.array or len(a.dims) != len(b.dims):
        raise AnalysisError("intersect: incompatible sections")
    dims = tuple(
        Triplet(simplify(smax(ta.lo, tb.lo), ctx), simplify(smin(ta.hi, tb.hi), ctx))
        for ta, tb in zip(a.dims, b.dims)
    )
    return Section(a.array, dims)


def section_union_hull(a: Section, b: Section, ctx: Optional[Assumptions] = None) -> Section:
    """Smallest enclosing section (the union need not be rectangular)."""
    ctx = ctx or Assumptions()
    if a.array != b.array or len(a.dims) != len(b.dims):
        raise AnalysisError("union: incompatible sections")
    dims = tuple(
        Triplet(simplify(smin(ta.lo, tb.lo), ctx), simplify(smax(ta.hi, tb.hi), ctx))
        for ta, tb in zip(a.dims, b.dims)
    )
    return Section(a.array, dims)


def section_equal(a: Section, b: Section, ctx: Optional[Assumptions] = None) -> Optional[bool]:
    ctx = ctx or Assumptions()
    if a.array != b.array or len(a.dims) != len(b.dims):
        return False
    verdict: Optional[bool] = True
    for ta, tb in zip(a.dims, b.dims):
        got = triplet_equal(ta, tb, ctx)
        if got is False:
            return False
        if got is None:
            verdict = None
    return verdict
