"""IF-inspection (paper Sec. 4, Fig. 4).

A guarded inner nest —

::

    DO K = lo, hi
      IF (cond(K)) THEN
        <nest>
      ENDIF

— blocks unroll-and-jam of ``K``: unrolled copies would evaluate
statements whose guard was never checked.  Replicating the guard inside
the innermost loop is legal but slow.  IF-inspection instead *inspects* at
run time which ``K`` ranges satisfy the guard, recording ``[KLB(j),
KUB(j)]`` interval bounds, and then executes the nest only over those
ranges::

    KC = 0 ; FLAG = .FALSE.
    DO K = lo, hi                       ! inspector
      IF (cond)  open/extend a range
      ELSE       close the range
    close the trailing range
    DO KN = 1, KC                       ! executor
      DO K = KLB(KN), KUB(KN)
        <nest>

The executor's K loop has guard-free, contiguous ranges, so
unroll-and-jam (and any other blocking) applies to it.  Fig. 10 fuses the
same inspector with distribution: :func:`guarded_distribute_with_inspection`
keeps the first part of the guarded body in the recording loop.  Both
call one builder, ``_inspect``.

Safety: the inspector pre-evaluates every guard, so the nest must not
write anything the guard reads — checked here, with element-disjointness
accepted (Givens QR's guard reads column ``L`` while its nest writes
columns ``>= L+1``).

The paper stores ``LOGICAL FLAG``; this IR models logicals as INTEGER
0/1.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.refs import collect_accesses
from repro.analysis.sections import expr_range, ranges_for_loops
from repro.errors import TransformError
from repro.ir.expr import ArrayRef, Compare, Const, Expr, Var, free_vars, smax, smin
from repro.ir.stmt import ArrayDecl, Assign, If, Loop, Procedure, Stmt
from repro.ir.visit import array_refs, replace_loop, walk_stmts
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import prove_lt, simplify
from repro.transform.base import fresh_var, non_comment, used_names


def _check_guard_stable(
    guard: Expr, loop: Loop, then: tuple[Stmt, ...], ctx: Assumptions
) -> None:
    """The executed body must not change the guard's value for any later
    inspected iteration."""
    guard_refs = list(array_refs(guard))
    guard_arrays = {r.array for r in guard_refs}
    written_scalars = {
        s.target.name
        for s in walk_stmts(then)
        if isinstance(s, Assign) and isinstance(s.target, Var)
    }
    clash = free_vars(guard) & written_scalars
    # loop variables in the guard are fine; they are not body-written
    clash -= {loop.var}
    if clash:
        raise TransformError(f"IF-inspection: guard reads scalars the body writes: {sorted(clash)}")
    for acc in collect_accesses(then):
        if not acc.is_write or acc.array not in guard_arrays:
            continue
        for gref in guard_refs:
            if gref.array != acc.array:
                continue
            if not _provably_disjoint(gref, acc.ref, loop, acc, ctx):
                raise TransformError(
                    f"IF-inspection: body writes {acc.array} elements the guard may read"
                )


def _provably_disjoint(gref: ArrayRef, wref: ArrayRef, loop: Loop, acc, ctx) -> bool:
    if gref.rank != wref.rank:
        return False
    ranges = ranges_for_loops(acc.loops)
    ranges[loop.var] = (loop.lo, loop.hi)
    for ge, we in zip(gref.index, wref.index):
        gr = expr_range(ge, {loop.var: (loop.lo, loop.hi)}, ctx)
        wr = expr_range(we, ranges, ctx)
        if gr is None or wr is None:
            continue
        if prove_lt(gr[1], wr[0], ctx) or prove_lt(wr[1], gr[0], ctx):
            return True
    return False


def guarded_if(loop: Loop) -> Optional[If]:
    """The IF of ``loop``'s body when that body is one IF-THEN without
    ELSE — the shape IF-inspection needs — else None."""
    body = non_comment(loop.body)
    if len(body) == 1 and isinstance(body[0], If) and not body[0].els:
        return body[0]
    return None


def _guarded_body(loop: Loop, what: str) -> tuple[Expr, tuple[Stmt, ...]]:
    """The guard and THEN branch of ``loop``'s one IF-THEN body."""
    guard = guarded_if(loop)
    if guard is None:
        raise TransformError(f"{what} needs a loop whose body is one IF-THEN")
    return guard.cond, guard.then


def _inspect(
    proc: Procedure,
    loop: Loop,
    guard: Expr,
    recorded: tuple[Stmt, ...],
    executed: tuple[Stmt, ...],
    ctx: Assumptions,
) -> tuple[Procedure, Loop]:
    """Replace ``loop`` by the Fig. 4 inspector, which runs ``recorded``
    under the guard while it records the ``[KLB, KUB]`` ranges, and the
    executor, which runs ``executed`` over those ranges."""
    taken = used_names(proc)
    k = loop.var
    kc = fresh_var(f"{k}C", taken, style="plain")
    klb = fresh_var(f"{k}LB", taken, style="plain")
    kub = fresh_var(f"{k}UB", taken, style="plain")
    kn = fresh_var(f"{k}N", taken, style="plain")
    flag = fresh_var("FLAG", taken, style="plain")

    # conservative extent for the range arrays: the loop's trip count can
    # never exceed hi (bounds are >= 1 in this Fortran subset)
    extent = simplify(loop.hi, ctx)
    outside = free_vars(extent) - set(proc.params)
    if outside:
        raise TransformError(
            f"IF-inspection: range-array extent {extent!r} mentions "
            f"non-parameters {sorted(outside)}"
        )

    true_, false_ = Const(1), Const(0)

    def close_range(last: Expr) -> If:
        return If(
            Compare("eq", Var(flag), true_),
            (
                Assign(ArrayRef(kub, (Var(kc),)), last),
                Assign(Var(flag), false_),
            ),
        )

    open_range = If(
        Compare("eq", Var(flag), false_),
        (
            Assign(Var(kc), Var(kc) + 1),
            Assign(ArrayRef(klb, (Var(kc),)), Var(k)),
            Assign(Var(flag), true_),
        ),
    )
    inspector = Loop(
        k, loop.lo, loop.hi,
        (If(guard, (open_range,) + recorded, (close_range(Var(k) - 1),)),),
    )
    # The MAX/MIN clamps are semantically redundant (recorded ranges lie
    # inside [lo, hi] by construction) but give downstream dependence
    # analysis affine arms to reason with — the paper prints the bare
    # KLB/KUB form.
    executor_inner = Loop(
        k,
        smax(ArrayRef(klb, (Var(kn),)), loop.lo),
        smin(ArrayRef(kub, (Var(kn),)), loop.hi),
        executed,
    )
    executor = Loop(kn, Const(1), Var(kc), (executor_inner,))

    replacement: list[Stmt] = [
        Assign(Var(flag), false_),
        Assign(Var(kc), Const(0)),
        inspector,
        close_range(loop.hi),
        executor,
    ]
    new_proc = replace_loop(proc, loop, replacement)
    new_proc = new_proc.adding_arrays(
        ArrayDecl(klb, (extent,), dtype="i8"), ArrayDecl(kub, (extent,), dtype="i8")
    )
    return new_proc, executor


def if_inspect(
    proc: Procedure,
    loop: Loop,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, Loop]:
    """Apply IF-inspection to ``loop``, whose body must be a single
    IF-THEN (no ELSE).  Returns the new procedure and the executor's range
    loop (the ``KN`` loop) for further transformation."""
    ctx = ctx or Assumptions()
    guard, then = _guarded_body(loop, "IF-inspection")
    if loop.step != Const(1):
        raise TransformError("IF-inspection requires unit step")
    if loop.var not in free_vars(guard):
        raise TransformError("guard is invariant in the loop; hoist it instead")
    _check_guard_stable(guard, loop, then, ctx)
    return _inspect(proc, loop, guard, (), then, ctx)


def guarded_distribute_with_inspection(
    proc: Procedure,
    loop: Loop,
    split_at: int,
    ctx: Optional[Assumptions] = None,
) -> tuple[Procedure, Loop]:
    """Distribute a loop whose whole body sits under one IF, keeping the
    guard evaluation in the first piece and *inspecting* it for the second.

    This is the Givens QR situation (Fig. 10): the rotation's first part
    zeroes the very element the guard reads, so after distribution the
    second piece must not re-evaluate the guard — it replays the recorded
    ranges instead.  ``split_at`` divides the IF body: statements before it
    stay with the (recording) guard, the rest move to the executor.

    Legality beyond ordinary distribution: the second piece's dependences
    on the first are checked on a trial split (guard reads themselves are
    exempt — inspection removes the re-evaluation).
    """
    ctx = ctx or Assumptions()
    guard, then = _guarded_body(loop, "guarded distribution")
    if not (0 < split_at < len(then)):
        raise TransformError("split point must partition the IF body")
    part1, part2 = tuple(then[:split_at]), tuple(then[split_at:])

    # trial distribution legality on the guard-split form
    from repro.analysis.graph import DependenceGraph

    trial_loop = Loop(loop.var, loop.lo, loop.hi, (If(guard, part1), If(guard, part2)))
    trial = replace_loop(proc, loop, trial_loop)
    graph = DependenceGraph(trial, ctx)
    comps = graph.recurrence_components(trial_loop)
    if len(comps) != 2:
        raise TransformError(
            "guarded distribution: the two pieces form a recurrence "
            f"({len(comps)} component(s))"
        )
    order = [id(c[0]) for c in comps]
    if order != [id(trial_loop.body[0]), id(trial_loop.body[1])]:
        raise TransformError("guarded distribution: pieces cannot keep their order")
    return _inspect(proc, loop, guard, part1, part2, ctx)
