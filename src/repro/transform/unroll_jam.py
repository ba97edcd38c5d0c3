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
Rhomboidal inner loops (``J`` in ``[II+a, II+b]``, the adjoint-convolution
shape) additionally get an unrolled-boundary *tail* nest ([Car92]).
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.errors import TransformError
from repro.ir.expr import Call, Const, Var, free_vars, smin
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.ir.visit import replace_loop, substitute, walk_stmts
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import simplify
from repro.transform.base import non_comment, sole_inner_loop
from repro.transform.interchange import swap_violation


def _check_jam_legal(proc: Procedure, loop: Loop, ctx: Assumptions) -> None:
    """Jam legality == interchange legality of ``loop`` past each loop
    nested within it (Sec. 2.3; pure unrolling of a flat body is always
    legal)."""
    for inner in walk_stmts(loop.body):
        if isinstance(inner, Loop):
            array = swap_violation(proc, loop, inner, ctx)
            if array is not None:
                raise TransformError(
                    f"unroll-and-jam of {loop.var} violates a dependence "
                    f"on {array} (via loop {inner.var})"
                )


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
    out: list[Stmt] = []
    for k in range(copies):
        out.extend(substitute(body, {var: Var(var) + k}))
    return tuple(out)


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

    trips = loop.hi - loop.lo + 1
    extra = Call("MOD", (trips, Const(factor)))
    pre = Loop(loop.var, loop.lo, simplify(loop.lo + extra - 1, ctx), loop.body)
    main = Loop(
        loop.var,
        simplify(loop.lo + extra, ctx),
        loop.hi,
        _jam(loop.body, loop.var, factor),
        step=Const(factor),
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
    ``loop.var + beta`` (triangular) and whose upper bound is either
    invariant (triangular) or ``loop.var + beta_hi`` (rhomboidal).
    Produces, per outer block of ``factor`` iterations::

        head  — (II, J) nest over the lower triangle;
        mid   — jammed rectangle, J independent of II, body unrolled;
        tail  — (II, J) nest over the upper triangle (rhomboidal only).
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
    v = loop.var
    u = factor
    if shape.kind == LoopShape.TRIANGULAR_HI and shape.hi.alpha == 1:
        return _upper_triangular_uj(proc, loop, inner, shape.hi.beta, u, ctx)
    if shape.kind == LoopShape.TRIANGULAR_LO and shape.lo.alpha == 1:
        beta_lo, hi_inv = shape.lo.beta, inner.hi
        rhomboidal = False
    elif shape.kind == LoopShape.RHOMBOIDAL and shape.lo.alpha == 1:
        beta_lo, beta_hi = shape.lo.beta, shape.hi.beta
        rhomboidal = True
        from repro.symbolic.simplify import prove_le

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

    trips = loop.hi - loop.lo + 1
    extra = Call("MOD", (trips, Const(u)))
    pre = Loop(v, loop.lo, simplify(loop.lo + extra - 1, ctx), (inner,))
    main_lo = simplify(loop.lo + extra, ctx)

    from repro.transform.base import fresh_var, used_names

    ii = fresh_var(v, used_names(proc))
    body = inner.body
    body_ii = substitute(body, {v: Var(ii)})
    j = inner.var
    blocks: list[Stmt] = []

    # head: J below the common rectangle, per-II triangular sweep over the
    # first u-1 strip iterations (the last one starts at the rectangle).
    rect_lo = Var(v) + (u - 1) + beta_lo  # first J every copy executes
    head_hi_arm = rect_lo - 1
    if rhomboidal:
        head_inner_hi = smin(head_hi_arm, Var(ii) + beta_hi)
    else:
        head_inner_hi = smin(head_hi_arm, inner.hi)
    head = Loop(
        ii,
        Var(v),
        simplify(Var(v) + (u - 2), ctx),
        (Loop(j, Var(ii) + beta_lo, simplify(head_inner_hi, ctx), body_ii),),
    )
    blocks.append(head)

    # mid: the rectangle, trip count independent of the strip index ->
    # unroll the strip completely and jam.
    mid_hi = Var(v) + beta_hi if rhomboidal else inner.hi
    mid_body: list[Stmt] = []
    for k in range(u):
        mid_body.extend(substitute(body, {v: Var(v) + k}))
    blocks.append(Loop(j, simplify(rect_lo, ctx), simplify(mid_hi, ctx), tuple(mid_body)))

    # tail (rhomboidal): J above the rectangle, per-II triangular sweep
    if rhomboidal:
        tail = Loop(
            ii,
            Var(v) + 1,
            simplify(Var(v) + (u - 1), ctx),
            (Loop(j, simplify(Var(v) + beta_hi + 1, ctx), Var(ii) + beta_hi, body_ii),),
        )
        blocks.append(tail)

    main = Loop(v, main_lo, loop.hi, tuple(blocks), step=Const(u))
    return replace_loop(proc, loop, (pre, main))


def _upper_triangular_uj(
    proc: Procedure,
    loop: Loop,
    inner: Loop,
    beta_hi,
    u: int,
    ctx: Assumptions,
) -> Procedure:
    """Sec. 3.1 mirrored for an upper-coupled bound: ``J <= loop.var +
    beta``.  The rectangle ``[lo, v + beta]`` is common to every copy of
    the block (its first iteration has the smallest bound), the per-copy
    triangle ``[v + beta + 1, II + beta]`` trails."""
    from repro.transform.base import fresh_var, used_names

    v = loop.var
    trips = loop.hi - loop.lo + 1
    extra = Call("MOD", (trips, Const(u)))
    pre = Loop(v, loop.lo, simplify(loop.lo + extra - 1, ctx), (inner,))
    main_lo = simplify(loop.lo + extra, ctx)

    ii = fresh_var(v, used_names(proc))
    body = inner.body
    body_ii = substitute(body, {v: Var(ii)})
    j = inner.var

    mid_body: list[Stmt] = []
    for k in range(u):
        mid_body.extend(substitute(body, {v: Var(v) + k}))
    mid = Loop(j, inner.lo, simplify(Var(v) + beta_hi, ctx), tuple(mid_body))
    tail = Loop(
        ii,
        Var(v) + 1,
        simplify(Var(v) + (u - 1), ctx),
        (Loop(j, simplify(Var(v) + beta_hi + 1, ctx), Var(ii) + beta_hi, body_ii),),
    )
    main = Loop(v, main_lo, loop.hi, (mid, tail), step=Const(u))
    return replace_loop(proc, loop, (pre, main))
