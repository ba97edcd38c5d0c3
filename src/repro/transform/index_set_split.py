"""Index-set splitting (paper Sec. 3, Figs. 2–3).

Three entry points, in increasing sophistication:

- :func:`split_index_set` — the mechanical transformation: one loop
  becomes two over ``[lo, MIN(hi,P)]`` and ``[MAX(lo,P+1), hi]``.
  Execution order is unchanged; always legal.
- :func:`split_trapezoid_min` / :func:`split_trapezoid_max` — Sec. 3.2:
  split an *outer* loop at the crossover point where a MIN upper bound
  (resp. MAX lower bound) of the inner loop switches arms, turning one
  trapezoidal nest into a triangular nest plus a rectangular nest, each of
  which the blocking machinery already handles.
- :func:`index_set_split_for_dependence` — Procedure IndexSetSplit
  (Fig. 3): given a transformation-preventing dependence, compute the
  sections touched by its source and sink over the region loop, intersect
  and union them, and split the inner loop of the reference that extends
  beyond the common region at the boundary — creating one loop where the
  references share memory and one where they are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.dependence import Dependence
from repro.analysis.refs import RefAccess
from repro.analysis.sections import (
    Section,
    section_equal,
    section_intersect,
    section_of_ref,
    section_union_hull,
)
from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.analysis.subscripts import analyze_subscript
from repro.errors import TransformError
from repro.ir.expr import Const, Expr, IntDiv, Var, as_expr, ExprLike, smax, smin
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import replace_loop
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import prove_eq, simplify
from repro.transform.base import sole_inner_loop


def split_index_set(
    proc: Procedure,
    loop: Loop,
    point: ExprLike,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, tuple[Loop, Loop]]:
    """Split ``loop`` after iteration ``point`` (Sec. 3's first example).

    The first loop runs ``lo .. MIN(hi, point)``, the second
    ``MAX(lo, point+1) .. hi``; either may be empty at run time, which is
    exactly how non-dividing block sizes are absorbed.
    """
    ctx = ctx or Assumptions()
    if loop.step != Const(1):
        raise TransformError("index-set splitting requires unit step")
    point_e = as_expr(point)
    first = Loop(loop.var, loop.lo, simplify(smin(loop.hi, point_e), ctx), loop.body)
    second = Loop(
        loop.var, simplify(smax(loop.lo, point_e + 1), ctx), loop.hi, loop.body
    )
    return replace_loop(proc, loop, (first, second)), (first, second)


def peel_first_iteration(
    proc: Procedure, loop: Loop, ctx: Optional[Assumptions] = None
) -> tuple[Procedure, tuple[Loop, Loop]]:
    """Split off the first iteration (used by the Givens QR pipeline where
    the recurrence exists only for the element ``A(L,L)``)."""
    return split_index_set(proc, loop, loop.lo, ctx)


def eliminate_single_trip(
    proc: Procedure, loop: Loop, ctx: Optional[Assumptions] = None
) -> Procedure:
    """Replace a provably single-iteration loop by its body with the
    induction variable substituted — the "complete unrolling" cleanup the
    paper applies to peeled iterations (Fig. 10's A1/A2 block)."""
    ctx = ctx or Assumptions()
    if loop.step != Const(1):
        raise TransformError("single-trip elimination requires unit step")
    from repro.ir.visit import substitute

    if not prove_eq(loop.lo, loop.hi, ctx):
        raise TransformError(
            f"cannot prove loop {loop.var} runs exactly once "
            f"({loop.lo!r} .. {loop.hi!r})"
        )
    body = substitute(loop.body, {loop.var: simplify(loop.lo, ctx)})
    return replace_loop(proc, loop, body)


# ---------------------------------------------------------------------------
# Sec. 3.2: trapezoids
# ---------------------------------------------------------------------------

def split_trapezoid_min(
    proc: Procedure,
    outer: Loop,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, tuple[Loop, Loop]]:
    """Split ``outer`` where its inner loop's ``MIN`` upper bound switches
    from the coupled arm to the invariant arm.

    ``DO I = lo,hi / DO J = L, MIN(alpha*I+beta, N)`` becomes a triangular
    nest for ``I <= (N-beta)/alpha`` and a rectangular nest beyond
    (``alpha > 0``; the paper's Sec. 3.2 case).
    """
    ctx = ctx or Assumptions()
    inner = sole_inner_loop(outer)
    if inner is None:
        raise TransformError("trapezoid splitting needs a perfectly nested inner loop")
    shape = classify_loop_shape(inner, outer.var)
    if shape.kind != LoopShape.TRAPEZOIDAL_MIN or shape.hi is None:
        raise TransformError(
            f"inner loop {inner.var} has no MIN-trapezoidal upper bound in {outer.var}"
        )
    a, beta = shape.hi.alpha, shape.hi.beta
    if a <= 0:
        raise TransformError("trapezoid splitting implemented for alpha > 0")
    invariant = smin(*shape.hi.invariant_arms) if len(shape.hi.invariant_arms) > 1 else shape.hi.invariant_arms[0]
    crossover = _floor_quot(invariant - beta, a)

    tri_inner = Loop(inner.var, inner.lo, simplify(Const(a) * Var(outer.var) + beta, ctx), inner.body, step=inner.step)
    rect_inner = Loop(inner.var, inner.lo, simplify(invariant, ctx), inner.body, step=inner.step)
    first = Loop(outer.var, outer.lo, simplify(smin(outer.hi, crossover), ctx), (tri_inner,), step=outer.step)
    second = Loop(outer.var, simplify(smax(outer.lo, crossover + 1), ctx), outer.hi, (rect_inner,), step=outer.step)
    return replace_loop(proc, outer, (first, second)), (first, second)


def split_trapezoid_max(
    proc: Procedure,
    outer: Loop,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, tuple[Loop, Loop]]:
    """Mirror of :func:`split_trapezoid_min` for a ``MAX`` lower bound:
    the rectangle (lower bound = invariant ``L``) comes first, the
    rhomboidal/triangular part after the crossover ``(L-beta)/alpha``
    (``alpha > 0``)."""
    ctx = ctx or Assumptions()
    inner = sole_inner_loop(outer)
    if inner is None:
        raise TransformError("trapezoid splitting needs a perfectly nested inner loop")
    shape = classify_loop_shape(inner, outer.var)
    if shape.kind != LoopShape.TRAPEZOIDAL_MAX or shape.lo is None or not shape.lo.invariant_arms:
        raise TransformError(
            f"inner loop {inner.var} has no MAX-trapezoidal lower bound in {outer.var}"
        )
    a, beta = shape.lo.alpha, shape.lo.beta
    if a <= 0:
        raise TransformError("trapezoid splitting implemented for alpha > 0")
    invariant = smax(*shape.lo.invariant_arms) if len(shape.lo.invariant_arms) > 1 else shape.lo.invariant_arms[0]
    crossover = _floor_quot(invariant - beta, a)

    rect_inner = Loop(inner.var, simplify(invariant, ctx), inner.hi, inner.body, step=inner.step)
    coupled_inner = Loop(
        inner.var, simplify(Const(a) * Var(outer.var) + beta, ctx), inner.hi, inner.body, step=inner.step
    )
    first = Loop(outer.var, outer.lo, simplify(smin(outer.hi, crossover), ctx), (rect_inner,), step=outer.step)
    second = Loop(outer.var, simplify(smax(outer.lo, crossover + 1), ctx), outer.hi, (coupled_inner,), step=outer.step)
    return replace_loop(proc, outer, (first, second)), (first, second)


def _floor_quot(num: Expr, a: int) -> Expr:
    """``floor(num / a)`` for ``a > 0`` and nonnegative numerators (the
    iteration-space geometry guarantees the sign in our uses)."""
    if a == 1:
        return num
    return IntDiv(num, Const(a))


# ---------------------------------------------------------------------------
# Fig. 3: Procedure IndexSetSplit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitReport:
    """What IndexSetSplit did: which loop, at which point, for which dep."""

    loop_var: str
    point: Expr
    source_section: Section
    sink_section: Section


def section_diff_count(
    region_loop: Loop, dep: Dependence, ctx: Optional[Assumptions] = None
) -> Optional[int]:
    """Number of dimensions in which the dependence's source and sink
    sections differ (None when sections are unrepresentable).  The driver
    attacks low-count dependences first — they give the cleanest splits."""
    ctx = ctx or Assumptions()
    from repro.analysis.sections import triplet_equal

    src_sec = section_of_ref(dep.source, region_loop, ctx)
    sink_sec = section_of_ref(dep.sink, region_loop, ctx)
    if src_sec is None or sink_sec is None:
        return None
    return sum(
        1
        for ts, tk in zip(src_sec.dims, sink_sec.dims)
        if triplet_equal(ts, tk, ctx) is not True
    )


def split_rank_key(
    region_loop: Loop,
    dep: Dependence,
    allowed_symbols: frozenset[str],
    ctx: Optional[Assumptions] = None,
) -> tuple[int, int]:
    """Ranking key for attacking preventing dependences: prefer sections
    expressed purely in loop variables and parameters (a boundary like
    ``K+KS-1`` carves a compile-time region; one involving a data-dependent
    scalar like pivoted LU's ``IMAX`` is legal but useless), then fewest
    differing dimensions."""
    ctx = ctx or Assumptions()
    from repro.ir.expr import free_vars

    nd = section_diff_count(region_loop, dep, ctx)
    if nd is None:
        return (2, 99)
    data_dependent = 0
    for acc in (dep.source, dep.sink):
        sec = section_of_ref(acc, region_loop, ctx)
        if sec is None:
            continue
        for t in sec.dims:
            if (free_vars(t.lo) | free_vars(t.hi)) - allowed_symbols:
                data_dependent = 1
    return (data_dependent, nd)


def index_set_split_for_dependence(
    proc: Procedure,
    region_loop: Loop,
    dep: Dependence,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, list[SplitReport]]:
    """Apply Procedure IndexSetSplit (Fig. 3) to one preventing dependence.

    Steps 1–2: sections of source and sink over the full execution of
    ``region_loop``, then their intersection and union.  Step 3: stop when
    intersection == union (nothing disjoint to carve off).  Steps 4–6: for
    every boundary where one reference's section extends beyond the common
    region, solve ``subscript = boundary`` for that reference's inner-loop
    induction variable and split its loop there.
    """
    ctx = ctx or Assumptions()
    src_sec = section_of_ref(dep.source, region_loop, ctx)
    sink_sec = section_of_ref(dep.sink, region_loop, ctx)
    if src_sec is None or sink_sec is None:
        raise TransformError("IndexSetSplit: sections not representable")
    inter = section_intersect(src_sec, sink_sec, ctx)
    union = section_union_hull(src_sec, sink_sec, ctx)
    if section_equal(inter, union, ctx) is True:
        raise TransformError(
            "IndexSetSplit: source and sink sections coincide; no disjoint region"
        )

    # How many dimensions actually separate the two sections?  A split on a
    # dependence whose sections differ in exactly one dimension carves the
    # cleanest disjoint region (the paper's J = K+KS-1 split); the caller
    # applies one split at a time and retries distribution.
    from repro.analysis.sections import triplet_equal

    ndiff = sum(
        1
        for ts, tk in zip(src_sec.dims, sink_sec.dims)
        if triplet_equal(ts, tk, ctx) is not True
    )

    candidates: list[tuple[int, object, int, Expr]] = []
    for acc, sec in ((dep.source, src_sec), (dep.sink, sink_sec)):
        for d, (t_acc, t_int) in enumerate(zip(sec.dims, inter.dims)):
            # extends above the common region -> boundary at inter.hi
            if not prove_eq(t_acc.hi, t_int.hi, ctx):
                candidates.append((ndiff, acc, d, simplify(t_int.hi, ctx)))
            # extends below -> boundary below inter.lo (keep [.., lo-1])
            if not prove_eq(t_acc.lo, t_int.lo, ctx):
                candidates.append((ndiff, acc, d, simplify(t_int.lo - 1, ctx)))

    for _nd, acc, d, boundary in candidates:
        got = _solve_and_split(proc, region_loop, acc, d, boundary, ctx)
        if got is None:
            continue
        new_proc, var, point = got
        return new_proc, [SplitReport(var, point, src_sec, sink_sec)]
    raise TransformError(
        "IndexSetSplit: no inner loop available to split at the boundary"
    )


def _solve_and_split(
    proc: Procedure,
    region_loop: Loop,
    acc: RefAccess,
    dim: int,
    boundary: Expr,
    ctx: Assumptions,
) -> Optional[tuple[Procedure, str, Expr]]:
    """Fig. 3 steps 4–5: solve subscript == boundary for the inner-loop
    induction variable and split that loop.  None when the subscript's
    variable is not an inner loop of the region (nothing to split)."""
    # loops strictly inside the region enclosing this access (it is inside:
    # the caller has its section over the region)
    inner_loops = {l.var: l for l in acc.loops_from(region_loop)[1:]}
    e = acc.ref.index[dim]
    info = analyze_subscript(e, tuple(inner_loops))
    if not info.affine:
        return None
    k = info.single_index
    if k is None:
        return None
    var = tuple(inner_loops)[k]
    c = info.coeffs[k]
    if abs(c) != 1:
        return None  # would need a divisibility argument
    from repro.symbolic.affine import from_affine, to_affine

    rest = info.rest
    b_aff = to_affine(boundary)
    if b_aff is None:
        # MIN/MAX boundary: solve symbolically only for unit coefficient
        if c == 1 and rest is not None and rest.is_constant and rest.const == 0:
            point: Expr = boundary
        else:
            return None
    else:
        point = from_affine((b_aff - rest) * c) if c == 1 else from_affine((rest - b_aff))
    loop_to_split = inner_loops[var]
    try:
        new_proc, _pair = split_index_set(proc, loop_to_split, point, ctx)
    except ValueError:
        # the loop changed identity under an earlier split of this pass
        return None
    return new_proc, var, point
