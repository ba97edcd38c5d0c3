"""Scalar replacement and scalar expansion.

**Scalar replacement** ([CCK90], used throughout the paper's "+" variants):
array references that are invariant in an innermost loop are kept in a
compiler temporary — loaded once before the loop, stored once after (when
written) — so the loop body touches memory only for genuinely moving
references.  This is the register-blocking payoff that unroll-and-jam
exposes.  Safety: another reference to the same array may alias the
replaced element; we require every other reference to be provably
element-disjoint from it across the loop's range (subscript-range
separation in some dimension), or textually identical (then it shares the
temporary).

**Scalar expansion** ([KKP+81], the Givens QR pipeline): a scalar assigned
and used inside a loop blocks distribution (its single cell carries a
value between the would-be loops); promoting it to a compiler array
indexed by the loop variable removes the recurrence.  The paper's Fig. 10
shows exactly this for ``C``/``S`` -> ``C(J)``/``S(J)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.refs import collect_accesses
from repro.errors import TransformError
from repro.ir.expr import ArrayRef, Expr, Var, free_vars
from repro.ir.stmt import ArrayDecl, Assign, Loop, Procedure, Stmt
from repro.ir.visit import (
    NodeTransformer,
    find_loops,
    replace_loop,
    walk_stmts,
)
from repro.symbolic.assume import Assumptions
from repro.transform.base import used_names


# ---------------------------------------------------------------------------
# scalar expansion
# ---------------------------------------------------------------------------

class _ScalarToArray(NodeTransformer):
    rewrite_exprs = True

    def __init__(self, mapping: dict[str, ArrayRef]):
        self.mapping = mapping

    def visit_expr(self, e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in self.mapping:
            return self.mapping[e.name]
        return e


def scalar_expand(
    proc: Procedure,
    loop: Loop,
    names: Sequence[str],
    extent: Optional[Expr] = None,
) -> Procedure:
    """Promote scalars to arrays indexed by ``loop.var`` (Fig. 10's
    ``C(J)``/``S(J)``).

    ``extent`` sizes the new arrays; defaults to the loop's upper bound,
    which must then be an expression over procedure parameters only.
    """
    if extent is None:
        extent = loop.hi
    outside = free_vars(extent) - set(proc.params)
    if outside:
        raise TransformError(
            f"scalar expansion extent {extent!r} uses non-parameters {sorted(outside)}; "
            "pass an explicit extent"
        )
    existing = {a.name for a in proc.arrays}
    mapping: dict[str, ArrayRef] = {}
    decls: list[ArrayDecl] = []
    for name in names:
        arr_name = name if name not in existing else f"{name}X"
        mapping[name] = ArrayRef(arr_name, (Var(loop.var),))
        decls.append(ArrayDecl(arr_name, (extent,)))
    new_body = _ScalarToArray(mapping).visit_body(loop.body)
    new_loop = loop.with_body(new_body)
    return replace_loop(proc, loop, new_loop).adding_arrays(*decls)


# ---------------------------------------------------------------------------
# scalar replacement
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplacementReport:
    """Per-loop record: which references became temporaries."""

    loop_var: str
    replaced: tuple[tuple[str, tuple[Expr, ...]], ...]  # (array, subscripts)


def _innermost_loops(proc: Procedure) -> list[Loop]:
    return [l for l in find_loops(proc) if not any(isinstance(s, Loop) for s in walk_stmts(l.body))]


def _invariant(ref: ArrayRef, var: str) -> bool:
    return all(var not in free_vars(e) for e in ref.index)


class _RefRewriter(NodeTransformer):
    rewrite_exprs = True

    def __init__(self, table: dict[tuple[str, tuple[Expr, ...]], str]):
        self.table = table

    def visit_expr(self, e: Expr) -> Expr:
        if isinstance(e, ArrayRef):
            t = self.table.get((e.array, e.index))
            if t is not None:
                return Var(t)
        return e


def scalar_replace(
    proc: Procedure,
    ctx: Optional[Assumptions] = None,
    loops: Optional[Sequence[Loop]] = None,
) -> tuple[Procedure, list[ReplacementReport]]:
    """Apply scalar replacement to every innermost loop (or to ``loops``).

    Returns the rewritten procedure and a report per transformed loop.
    Loops where no reference qualifies are left untouched.
    """
    from repro.analysis.context import context_for_path

    base = ctx or Assumptions()
    reports: list[ReplacementReport] = []
    targets = list(loops) if loops is not None else _innermost_loops(proc)
    from repro.ir.visit import find_loops

    for loop in targets:
        # earlier replacements rebuild the tree; re-locate this target by
        # structural equality before operating on it
        live = next((l for l in find_loops(proc) if l is loop or l == loop), None)
        if live is None:
            continue
        # facts scoped to this loop's path (same-named sibling loops from
        # splitting/unrolling must not contribute contradictory ranges)
        try:
            loop_ctx = context_for_path(proc, live, base)
        except KeyError:
            continue
        try:
            got = _replace_in_loop(proc, live, loop_ctx)
        except ValueError:
            continue  # structurally ambiguous twin loops; leave them alone
        if got is None:
            continue
        proc, report = got
        reports.append(report)
    return proc, reports


def _replace_in_loop(
    proc: Procedure, loop: Loop, ctx: Assumptions
) -> Optional[tuple[Procedure, ReplacementReport]]:
    from repro.analysis.feasibility import direction_feasible
    from repro.ir.visit import walk_stmts

    # Collect with full enclosing-loop context: the aliasing queries below
    # need the outer loops' bounds (including disjunctive MIN lower bounds
    # that unroll-and-jam's remainder handling introduces).
    all_accs = [a for a in collect_accesses(proc) if any(l is loop for l in a.loops)]
    # group by (array, exact subscript tuple)
    groups: dict[tuple[str, tuple[Expr, ...]], list] = {}
    for a in all_accs:
        groups.setdefault((a.array, a.ref.index), []).append(a)

    inner_vars = {l.var for l in walk_stmts(loop.body) if isinstance(l, Loop)}

    def may_alias(a, b) -> bool:
        """Can the two references touch one element, holding the loops
        *outside* ``loop`` at the same iteration?"""
        common = a.common_loops(b)
        dirs = []
        seen = False
        for l in common:
            if l is loop:
                seen = True
            dirs.append("*" if seen else "=")
        return direction_feasible(a, b, dirs, common, ctx) or direction_feasible(
            b, a, dirs, common, ctx
        )

    # (array, idx, written, hoist_outside)
    candidates: list[tuple[str, tuple[Expr, ...], bool, bool]] = []
    for (array, idx), group in groups.items():
        ref = group[0].ref
        # subscripts referencing inner loop variables cannot be hoisted to
        # the body top (the variable is not live there)
        if any(inner_vars & free_vars(e) for e in idx):
            continue
        invariant = _invariant(ref, loop.var)
        # Loop-invariant refs hoist across the loop (temporal reuse,
        # [CCK90]); varying refs with several occurrences per iteration
        # collapse to one load/store *within* the body (loop-independent
        # reuse — the unroll-and-jam accumulator pattern).
        if not invariant and len(group) < 2:
            continue
        # guarded accesses cannot be hoisted out of their IF
        if any(a.guards for a in group):
            continue
        written = any(a.is_write for a in group)
        # alias check against every *other* reference to this array
        safe = True
        for (o_array, o_idx), o_group in groups.items():
            if o_array != array or o_idx == idx:
                continue
            touches = written or any(a.is_write for a in o_group)
            if not touches:
                continue  # read-read aliasing is harmless
            if may_alias(group[0], o_group[0]):
                safe = False
                break
        if safe:
            candidates.append((array, idx, written, invariant))

    if not candidates:
        return None

    taken = used_names(proc)
    table: dict[tuple[str, tuple[Expr, ...]], str] = {}
    pre: list[Stmt] = []
    post: list[Stmt] = []
    body_pre: list[Stmt] = []
    body_post: list[Stmt] = []
    for array, idx, written, invariant in candidates:
        name = f"{array}0"
        n = 0
        while name in taken:
            n += 1
            name = f"{array}{n}"
        taken.add(name)
        table[(array, idx)] = name
        if invariant:
            pre.append(Assign(Var(name), ArrayRef(array, idx)))
            if written:
                post.append(Assign(ArrayRef(array, idx), Var(name)))
        else:
            body_pre.append(Assign(Var(name), ArrayRef(array, idx)))
            if written:
                body_post.append(Assign(ArrayRef(array, idx), Var(name)))

    new_body = (
        tuple(body_pre) + _RefRewriter(table).visit_body(loop.body) + tuple(body_post)
    )
    new_loop = loop.with_body(new_body)
    replacement: list[Stmt] = pre + [new_loop] + post
    new_proc = replace_loop(proc, loop, replacement)
    report = ReplacementReport(loop.var, tuple((a, i) for a, i, _w, _inv in candidates))
    return new_proc, report
