"""The strip-mine-and-interchange blocking driver.

:func:`block_loop` composes the package's transformations the way the
paper's study does by hand:

1. **strip-mine** the chosen loop by the blocking factor;
2. repeatedly **sink** every strip loop toward the innermost position:

   - a perfectly nested strip loop is **interchanged** inward (triangular/
     rhomboidal bound rewrites applied as needed; trapezoidal inner loops
     are **index-set split** into triangle + rectangle first, Sec. 3.2);
   - a non-perfectly-nested strip loop is **distributed** (Allen–Kennedy);
     when a recurrence spans the whole body, each transformation-preventing
     dependence is attacked with **Procedure IndexSetSplit** (Fig. 3) and
     distribution is retried; a commutativity oracle (Sec. 5.2) may declare
     specific preventing dependences ignorable;
   - a strip loop whose residual recurrence cannot be split stays where it
     is — that piece remains "point", exactly like the factorization panel
     of block LU (Fig. 6).

The returned :class:`BlockingReport` records every step taken and how many
strip loops reached the innermost position — the raw material for the
Sec. 5 blockability verdicts.  :func:`place_strips` counts them from the
program alone; it is the one definition of "blocked", and the checked
``block`` pass judges its result by it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.context import context_for_path
from repro.analysis.dependence import Dependence
from repro.analysis.graph import DependenceGraph
from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.errors import TransformError
from repro.ir.expr import Expr, ExprLike, Var, as_expr
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var, loop_path, walk_stmts
from repro.symbolic.assume import Assumptions
from repro.transform.base import non_comment, sole_inner_loop
from repro.transform.distribution import ScalarFlowError, distribute
from repro.transform.index_set_split import (
    index_set_split_for_dependence,
    split_trapezoid,
)
from repro.transform.interchange import interchange
from repro.transform.scalars import scalar_expand
from repro.transform.stripmine import strip_mine

#: Oracle type: may a preventing dependence be ignored?  (Sec. 5.2's
#: commutativity knowledge implements this for pivoted LU.)
IgnoreOracle = Callable[[Procedure, Loop, Dependence], bool]


@dataclass
class BlockingReport:
    """Trace of the driver's decisions."""

    block_var: str
    strip_var: str
    factor: ExprLike
    steps: list[str] = field(default_factory=list)
    used_index_set_split: bool = False
    used_commutativity: bool = False
    used_scalar_expansion: bool = False
    blocked_innermost: int = 0  # strip loops that reached innermost position
    residual_point_loops: int = 0  # strip loops left in place (recurrences)
    #: (loop var, point) of every IndexSetSplit applied: its length is
    #: what ``max_splits`` budgets, its keys what a repeated split matches
    splits: list[tuple[str, Expr]] = field(default_factory=list)

    def log(self, msg: str) -> None:
        self.steps.append(msg)


#: how many sweeps over the strip loops :func:`block_loop` makes at most
MAX_ROUNDS = 64


def _is_innermost(loop: Loop) -> bool:
    return not any(isinstance(s, Loop) for s in walk_stmts(loop.body))


def block_loop(
    proc: Procedure,
    loop_var: str,
    factor: ExprLike,
    ctx: Optional[Assumptions] = None,
    ignore_dep: Optional[IgnoreOracle] = None,
    max_splits: int = 6,
) -> tuple[Procedure, BlockingReport]:
    """Block the loop over ``loop_var`` by ``factor`` (symbol or literal).

    Raises TransformError only for malformed requests; an *unblockable*
    loop yields a report with ``blocked_innermost == 0`` — the study's
    negative results are data, not exceptions.
    """
    ctx = ctx or Assumptions()
    loop = loop_by_var(proc.body, loop_var)
    proc, sm = strip_mine(proc, loop, factor, ctx=ctx)
    report = BlockingReport(sm.block_var, sm.strip_var, sm.factor)
    report.log(f"strip-mined {loop_var} by {as_expr(factor)!r} -> {sm.strip_var}")

    if isinstance(sm.factor, Var):
        ctx.assume_ge(sm.factor.name, 2)

    stuck: set[tuple] = set()
    for _round in range(MAX_ROUNDS):
        changed = False
        for cand in find_loops(proc):
            if cand.var != sm.strip_var:
                continue
            sig = _signature(cand)
            if sig in stuck or _is_innermost(cand):
                continue
            # Facts scoped to this candidate's path: sibling loops created
            # by earlier splits reuse variable names with different ranges
            # and must not pollute the context.
            ctx_cand = context_for_path(proc, cand, ctx)
            action = _advance(proc, cand, ctx_cand, report, ignore_dep, max_splits)
            if action is None:
                stuck.add(sig)
                continue
            proc = action
            changed = True
            break  # tree changed; restart the scan
        if not changed:
            break
    else:
        report.log("round limit reached")

    report.blocked_innermost, report.residual_point_loops = place_strips(
        proc, sm.block_var, sm.strip_var
    )
    return proc, report


def place_strips(proc: Procedure, block_var: str, strip_var: str) -> tuple[int, int]:
    """(blocked, residual) counts of the ``strip_var`` loops in ``proc``:
    blocked when innermost *and* sunk below another loop under the
    ``block_var`` loop (right under it is just strip mining, which
    captures no reuse), else a residual point loop."""
    blocked = residual = 0
    for cand in find_loops(proc):
        if cand.var != strip_var:
            continue
        if _is_innermost(cand):
            path = loop_path(proc, cand)
            at_block = next((k for k, l in enumerate(path) if l.var == block_var), None)
            if at_block is not None and len(path) - at_block >= 3:
                blocked += 1
                continue
        residual += 1
    return blocked, residual


def _signature(loop: Loop) -> tuple:
    return (loop.var, loop.lo, loop.hi, len(loop.body), loop.body)


def _advance(
    proc: Procedure,
    loop: Loop,
    ctx: Assumptions,
    report: BlockingReport,
    ignore_dep: Optional[IgnoreOracle],
    max_splits: int,
) -> Optional[Procedure]:
    """One sinking step on one strip loop; None when nothing applies."""
    inner = sole_inner_loop(loop)
    if inner is not None:
        # try to interchange past the inner loop
        shape = classify_loop_shape(inner, loop.var)
        if shape.kind in (LoopShape.TRAPEZOIDAL_MIN, LoopShape.TRAPEZOIDAL_MAX):
            try:
                new_proc, _ = split_trapezoid(proc, loop, ctx)
                report.log(
                    f"split trapezoidal nest ({loop.var}, {inner.var}) into "
                    "triangle + rectangle"
                )
                return new_proc
            except TransformError as e:
                report.log(f"trapezoid split failed: {e}")
                return None
        try:
            new_proc = interchange(proc, loop, ctx)
            report.log(f"interchanged {loop.var} inside {inner.var}")
            return new_proc
        except TransformError as e:
            report.log(f"interchange {loop.var}/{inner.var} refused: {e}")
            return None

    # not perfectly nested: distribute, splitting recurrences if needed
    body = non_comment(loop.body)
    if len(body) <= 1:
        return None  # single non-loop statement: already innermost-ish
    try:
        new_proc, new_loops = distribute(proc, loop, ctx)
        if len(new_loops) > 1:
            report.log(
                f"distributed {loop.var} into {len(new_loops)} loops"
            )
            return new_proc
        return None
    except ScalarFlowError as e:
        # Scalar flow fuses everything into one group.  Attack the array
        # recurrence first (splitting may carve out a scalar-free piece);
        # fall back to expanding the scalars only if splitting gets
        # nowhere.
        graph = DependenceGraph(proc, ctx)
        preventing = graph.preventing_dependences(loop)
        attacked = _attack_recurrence(
            proc, loop, ctx, report, ignore_dep, max_splits, preventing
        )
        if attacked is not None:
            return attacked
        try:
            new_proc = scalar_expand(proc, loop, sorted(e.names))
        except TransformError as e2:
            report.log(f"scalar expansion refused: {e2}")
            return None
        report.used_scalar_expansion = True
        report.log(f"scalar-expanded {sorted(e.names)} in {loop.var}")
        return new_proc
    except TransformError as e:
        preventing = getattr(e, "preventing", None)
        if not preventing:
            report.log(f"distribution of {loop.var} refused: {e}")
            return None
        return _attack_recurrence(
            proc, loop, ctx, report, ignore_dep, max_splits, preventing
        )


def _attack_recurrence(
    proc: Procedure,
    loop: Loop,
    ctx: Assumptions,
    report: BlockingReport,
    ignore_dep: Optional[IgnoreOracle],
    max_splits: int,
    preventing,
) -> Optional[Procedure]:
    """Discharge a whole-body recurrence: commutativity oracle, then
    Procedure IndexSetSplit (Fig. 3)."""
    # Sec. 5.2: ask the commutativity oracle first
    if ignore_dep is not None:
        remaining = [d for d in preventing if not ignore_dep(proc, loop, d)]
        if len(remaining) < len(preventing):
            try:
                new_proc, new_loops = distribute(
                    proc, loop, ctx, drop_dep=lambda d: ignore_dep(proc, loop, d)
                )
            except TransformError as e2:
                report.log(f"distribution with commutativity refused: {e2}")
            else:
                if len(new_loops) > 1:
                    report.used_commutativity = True
                    report.log(
                        f"commutativity knowledge discharged "
                        f"{len(preventing) - len(remaining)} preventing "
                        f"dependence(s); distributed {loop.var} into "
                        f"{len(new_loops)} loops"
                    )
                    return new_proc
        preventing = remaining
    # Fig. 3: IndexSetSplit on each preventing dependence — cleanest
    # first: compile-time boundaries before data-dependent ones, then
    # fewest differing section dimensions.
    if len(report.splits) >= max_splits:
        report.log("split budget exhausted; leaving recurrence in place")
        return None
    from repro.transform.index_set_split import split_rank_key

    allowed = frozenset(proc.params)
    try:
        allowed |= {l.var for l in loop_path(proc, loop)}
    except KeyError:
        pass
    allowed |= {l.var for l in walk_stmts(loop) if isinstance(l, Loop)}

    ranked = sorted(preventing, key=lambda d: split_rank_key(loop, d, allowed, ctx))
    for dep in ranked:
        try:
            new_proc, reports = index_set_split_for_dependence(proc, loop, dep, ctx)
        except TransformError as e2:
            report.log(f"IndexSetSplit on {dep.array}: {e2}")
            continue
        if (reports[0].loop_var, reports[0].point) in report.splits:
            report.log(f"skipping repeated split of {reports[0].loop_var}")
            continue
        report.used_index_set_split = True
        for r in reports:
            report.splits.append((r.loop_var, r.point))
            report.log(
                f"IndexSetSplit: split {r.loop_var} at {r.point!r} "
                f"(sections {r.source_section.pretty()} vs "
                f"{r.sink_section.pretty()})"
            )
        return new_proc
    report.log(f"all preventing dependences of {loop.var} resist splitting")
    return None


