"""Unroll-and-jam, rectangular and triangular (Secs. 2.3 and 3.1).

Unroll-and-jam is register blocking: unroll an *outer* loop and fuse
("jam") the resulting copies of the inner loops, so the innermost body
carries several outer iterations at once and invariant references become
register candidates for scalar replacement.  As the paper notes, it is
strip-mine-and-interchange followed by complete unrolling of the strip
loop; its legality condition is the interchange condition, and we check it
with the same iteration-space-exact feasibility test.

Non-dividing trip counts are handled with a **pre-loop** (the paper's
choice, Sec. 2.3) of ``MOD(trips, u)`` plain iterations before the
unrolled region.

For triangular inner loops (``J`` from ``alpha*II + beta``, ``alpha = 1``)
:func:`triangular_unroll_jam` implements the Sec. 3.1 derivation: the
index set of ``J`` is split at ``(I+IS-1)+beta`` into the triangular
head — left as a small (II, J) nest — and the rectangular region, whose
trip count no longer depends on ``II`` and which is therefore unrolled.
A coupled upper bound mirrors the head as a *tail* nest; rhomboidal inner
loops (``J`` in ``[II+a, II+b]``, the adjoint-convolution shape) get both
([Car92]).  Both functions share one remainder pre-loop and one builder
of the unrolled copies.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.errors import TransformError
from repro.ir.expr import Call, Const, Expr, Var, free_vars, smin
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.ir.visit import replace_loop, substitute, walk_stmts
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import prove_le, simplify
from repro.transform.base import fresh_var, non_comment, sole_inner_loop, used_names
from repro.transform.interchange import swap_witnesses


def jam_witnesses(proc: Procedure, loop: Loop, ctx: Assumptions):
    """Yield ``(inner, edge)`` for every loop nested within ``loop`` and
    every :func:`~repro.transform.interchange.swap_witnesses` edge at
    (loop, inner): jam legality is interchange legality of ``loop`` past
    each of them (Sec. 2.3; pure unrolling of a flat body is always
    legal)."""
    for inner in walk_stmts(loop.body):
        if isinstance(inner, Loop):
            for dep in swap_witnesses(proc, loop, inner, ctx):
                yield inner, dep


def _check_jam_legal(proc: Procedure, loop: Loop, ctx: Assumptions) -> None:
    hit = next(jam_witnesses(proc, loop, ctx), None)
    if hit is not None:
        inner, dep = hit
        raise TransformError(
            f"unroll-and-jam of {loop.var} violates a dependence "
            f"on {dep.array} (via loop {inner.var})"
        )


def _copies(body: tuple[Stmt, ...], var: str, u: int) -> tuple[Stmt, ...]:
    """``u`` copies of ``body``, the k-th with ``var`` shifted by k."""
    return tuple(s for k in range(u) for s in substitute(body, {var: Var(var) + k}))


def _remainder(loop: Loop, body: tuple[Stmt, ...], u: int, ctx: Assumptions) -> tuple[Loop, Expr]:
    """The pre-loop of ``MOD(trips, u)`` plain iterations of ``body``
    (Sec. 2.3), and the first iteration left for the unrolled loop."""
    extra = Call("MOD", (loop.hi - loop.lo + 1, Const(u)))
    pre = Loop(loop.var, loop.lo, simplify(loop.lo + extra - 1, ctx), body)
    return pre, simplify(loop.lo + extra, ctx)


def _jam(body: tuple[Stmt, ...], var: str, copies: int) -> tuple[Stmt, ...]:
    """Fuse ``copies`` unrolled instances of ``body``.

    While the body is a single loop whose bounds do not mention ``var``,
    descend and fuse at the deeper level; otherwise emit the copies
    sequentially (plain unrolling)."""
    inner = non_comment(body)
    if len(inner) == 1 and isinstance(inner[0], Loop):
        l = inner[0]
        if var not in free_vars(l.lo) | free_vars(l.hi) | free_vars(l.step):
            return (Loop(l.var, l.lo, l.hi, _jam(l.body, var, copies), step=l.step),)
    return _copies(body, var, copies)


def unroll_and_jam(
    proc: Procedure,
    loop: Loop,
    factor: int,
    ctx: Optional[Assumptions] = None,
) -> Procedure:
    """Unroll ``loop`` by ``factor`` and jam the copies (pre-loop form)."""
    if factor < 2:
        raise TransformError("unroll factor must be >= 2")
    if loop.step != Const(1):
        raise TransformError("unroll-and-jam requires unit step")
    ctx = ctx or Assumptions()
    _check_jam_legal(proc, loop, ctx)

    pre, main_lo = _remainder(loop, loop.body, factor, ctx)
    main = Loop(
        loop.var, main_lo, loop.hi, _jam(loop.body, loop.var, factor), step=Const(factor)
    )
    return replace_loop(proc, loop, (pre, main))


def triangular_unroll_jam(
    proc: Procedure,
    loop: Loop,
    factor: int,
    ctx: Optional[Assumptions] = None,
) -> Procedure:
    """Sec. 3.1 unroll-and-jam for coupled inner bounds (``alpha = 1``).

    ``loop`` must perfectly contain one inner loop whose lower bound is
    ``loop.var + beta`` and whose upper bound is invariant (triangular),
    whose upper bound is ``loop.var + beta`` and lower bound invariant
    (upper triangular, the mirror), or both (rhomboidal).  Produces, per
    outer block of ``factor`` iterations::

        head  — (II, J) nest over the lower triangle (lower bound coupled);
        mid   — jammed rectangle, J independent of II, body unrolled;
        tail  — (II, J) nest over the upper triangle (upper bound coupled).
    """
    if factor < 2:
        raise TransformError("unroll factor must be >= 2")
    ctx = ctx or Assumptions()
    inner = sole_inner_loop(loop)
    if inner is None:
        raise TransformError("triangular unroll-and-jam needs a perfect 2-nest")
    if loop.step != Const(1) or inner.step != Const(1):
        raise TransformError("triangular unroll-and-jam requires unit steps")
    _check_jam_legal(proc, loop, ctx)

    shape = classify_loop_shape(inner, loop.var)
    v, u, j = loop.var, factor, inner.var
    if shape.kind == LoopShape.TRIANGULAR_HI and shape.hi.alpha == 1:
        beta_lo, beta_hi = None, shape.hi.beta
    elif shape.kind == LoopShape.TRIANGULAR_LO and shape.lo.alpha == 1:
        beta_lo, beta_hi = shape.lo.beta, None
    elif shape.kind == LoopShape.RHOMBOIDAL and shape.lo.alpha == 1:
        beta_lo, beta_hi = shape.lo.beta, shape.hi.beta
        # The head/mid/tail decomposition needs the band at least as wide
        # as the unroll factor, else head and tail would overlap.
        if not prove_le(Const(u - 1), beta_hi - beta_lo, ctx):
            raise TransformError(
                f"rhomboidal unroll-and-jam by {u} needs band width "
                f">= {u - 1} (cannot prove it)"
            )
    else:
        raise TransformError(
            f"triangular unroll-and-jam: unsupported shape {shape.kind.value} "
            "(alpha must be 1; see [Car92] for extensions)"
        )

    pre, main_lo = _remainder(loop, (inner,), u, ctx)
    ii = fresh_var(v, used_names(proc))
    body_ii = substitute(inner.body, {v: Var(ii)})
    # the rectangle every copy of the block executes: J from the last
    # copy's lower bound to the first copy's upper bound
    mid_lo, mid_hi = inner.lo, inner.hi
    blocks: list[Stmt] = []
    if beta_lo is not None:
        # head: J below the rectangle, per-II triangular sweep over the
        # first u-1 strip iterations (the last one starts at the rectangle).
        rect_lo = Var(v) + (u - 1) + beta_lo
        row_hi = inner.hi if beta_hi is None else Var(ii) + beta_hi
        blocks.append(Loop(
            ii,
            Var(v),
            simplify(Var(v) + (u - 2), ctx),
            (Loop(j, Var(ii) + beta_lo, simplify(smin(rect_lo - 1, row_hi), ctx), body_ii),),
        ))
        mid_lo = simplify(rect_lo, ctx)
    if beta_hi is not None:
        mid_hi = Var(v) + beta_hi
    # mid: the rectangle, trip count independent of the strip index ->
    # unroll the strip completely and jam.
    blocks.append(Loop(j, mid_lo, simplify(mid_hi, ctx), _copies(inner.body, v, u)))
    if beta_hi is not None:
        # tail: J above the rectangle, per-II triangular sweep
        blocks.append(Loop(
            ii,
            Var(v) + 1,
            simplify(Var(v) + (u - 1), ctx),
            (Loop(j, simplify(Var(v) + beta_hi + 1, ctx), Var(ii) + beta_hi, body_ii),),
        ))

    main = Loop(v, main_lo, loop.hi, tuple(blocks), step=Const(u))
    return replace_loop(proc, loop, (pre, main))
