"""Scalar replacement and scalar expansion.

**Scalar replacement** ([CCK90], used throughout the paper's "+" variants):
array references that are invariant in an innermost loop are kept in a
compiler temporary — loaded once before the loop, stored once after (when
written) — so the loop body touches memory only for genuinely moving
references.  This is the register-blocking payoff that unroll-and-jam
exposes.  Safety: another reference to the same array may alias the
replaced element; we require every other reference to be provably
element-disjoint from it across the loop's range, or textually identical
(then it shares the temporary).  Most pairs are settled exactly with no
elimination — with the outer loops held equal, some dimension's subscripts
differ by a nonzero constant, the degenerate case of Nuriyev's exact
Diophantine test — and only the rest go to Fourier–Motzkin.  A subscript
naming a scalar the loop assigns moves with it and is never replaced.
Every innermost loop is planned against the input tree, from one access
collection, and all plans are applied in one rewrite.

**Scalar expansion** ([KKP+81], the Givens QR pipeline): a scalar assigned
and used inside a loop blocks distribution (its single cell carries a
value between the would-be loops); promoting it to a compiler array
indexed by the loop variable removes the recurrence.  The paper's Fig. 10
shows exactly this for ``C``/``S`` -> ``C(J)``/``S(J)``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import count
from typing import Optional, Sequence

from repro.analysis.context import add_loop_facts
from repro.analysis.feasibility import direction_feasible
from repro.analysis.refs import RefAccess, collect_accesses
from repro.errors import TransformError
from repro.ir.expr import ArrayRef, Expr, Var, free_vars
from repro.ir.stmt import ArrayDecl, Assign, Loop, Procedure
from repro.ir.visit import NodeTransformer, find_loops, replace_loop, walk_stmts
from repro.symbolic.affine import to_affine
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


def constant_offset_apart(a: ArrayRef, b: ArrayRef, var: str) -> bool:
    """Exact independence with no elimination: while the loops outside
    ``var``'s stay at one iteration and the scalars the subscripts name keep
    one value, ``a`` and ``b`` never name one element if, in some dimension,
    neither subscript moves with ``var`` and the two differ by a nonzero
    constant."""
    for ea, eb in zip(a.index, b.index):
        fa, fb = to_affine(ea), to_affine(eb)
        if fa is not None and fb is not None and not fa.coeff(var):
            d = fa - fb
            if d.is_constant and d.const:
                return True
    return False


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


class _Apply(NodeTransformer):
    """Swap each planned loop (by identity) for its hoisted loads, the loop
    with rewritten body and its stores."""

    def __init__(self, plans: dict[int, tuple]):
        self.plans = plans

    def visit_Loop(self, node: Loop):
        plan = self.plans.get(id(node))
        if plan is None:
            return self.generic_visit(node)
        table, pre, post, body_pre, body_post = plan
        body = (*body_pre, *_RefRewriter(table).visit_body(node.body), *body_post)
        return [*pre, node.with_body(body), *post]


def scalar_replace(
    proc: Procedure, ctx: Optional[Assumptions] = None
) -> tuple[Procedure, list[ReplacementReport]]:
    """Apply scalar replacement to every innermost loop.

    Each loop is planned against the input tree from one access collection,
    with one set of taken names consumed in loop order, and all plans are
    applied in one rewrite.  Returns the rewritten procedure and a report
    per transformed loop.  Loops where no reference qualifies are left
    untouched, and so are twin loops (structurally equal innermost loops).
    """
    base = ctx or Assumptions()
    targets = _innermost_loops(proc)
    inside: dict[int, list[RefAccess]] = {id(l): [] for l in targets}
    for a in collect_accesses(proc):
        if a.loops and id(a.loops[-1]) in inside:
            inside[id(a.loops[-1])].append(a)
    copies = Counter(targets)
    taken = used_names(proc)
    plans: dict[int, tuple] = {}
    reports: list[ReplacementReport] = []
    for loop in targets:
        accs = inside[id(loop)]
        candidates = _candidates(loop, accs, base) if accs and copies[loop] == 1 else []
        if candidates:
            plans[id(loop)] = _plan(candidates, taken)
            reports.append(ReplacementReport(loop.var, tuple((a, i) for a, i, _w, _inv in candidates)))
    return (_Apply(plans).transform_procedure(proc) if plans else proc), reports


def _candidates(
    loop: Loop, accs: list[RefAccess], base: Assumptions
) -> list[tuple[str, tuple[Expr, ...], bool, bool]]:
    """``(array, subscripts, written, invariant)`` of every reference group
    in innermost ``loop`` (accesses ``accs``) that a temporary may carry."""
    # group by (array, exact subscript tuple)
    groups: dict[tuple[str, tuple[Expr, ...]], list[RefAccess]] = {}
    for a in accs:
        groups.setdefault((a.array, a.ref.index), []).append(a)
    # scalars the body assigns: a subscript naming one moves within the
    # loop, and is not live at the body top before its assignment
    assigned = {s.target.name for s in walk_stmts(loop.body)
                if isinstance(s, Assign) and isinstance(s.target, Var)}
    path = accs[0].loops
    dirs = ["="] * (len(path) - 1) + ["*"]
    ctx: Optional[Assumptions] = None

    def may_alias(a: RefAccess, b: RefAccess) -> bool:
        """Can the two references touch one element, holding the loops
        *outside* ``loop`` at the same iteration?"""
        nonlocal ctx
        if constant_offset_apart(a.ref, b.ref, loop.var):
            return False
        if ctx is None:
            # facts of the loops enclosing ``loop`` (inclusive): the query
            # needs the outer bounds (including disjunctive MIN lower bounds
            # that unroll-and-jam's remainder handling introduces)
            ctx = base.copy()
            for l in path:
                add_loop_facts(ctx, l)
        return direction_feasible(a, b, dirs, path, ctx) or direction_feasible(
            b, a, dirs, path, ctx
        )

    candidates = []
    for (array, idx), group in groups.items():
        if any(assigned & free_vars(e) for e in idx):
            continue
        invariant = all(loop.var not in free_vars(e) for e in idx)
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
        # (read-read aliasing is harmless)
        if not any(
            o_array == array and o_idx != idx
            and (written or any(a.is_write for a in o_group))
            and may_alias(group[0], o_group[0])
            for (o_array, o_idx), o_group in groups.items()
        ):
            candidates.append((array, idx, written, invariant))
    return candidates


def _plan(candidates: list, taken: set[str]) -> tuple:
    """The rewrite of one loop: its reference table and the loads and
    stores before, after and inside it; temporaries' names join ``taken``."""
    table: dict[tuple[str, tuple[Expr, ...]], str] = {}
    pre, post, body_pre, body_post = [], [], [], []
    for array, idx, written, invariant in candidates:
        name = next(f"{array}{n}" for n in count() if f"{array}{n}" not in taken)
        taken.add(name)
        table[(array, idx)] = name
        load, store = (pre, post) if invariant else (body_pre, body_post)
        load.append(Assign(Var(name), ArrayRef(array, idx)))
        if written:
            store.append(Assign(ArrayRef(array, idx), Var(name)))
    return table, pre, post, body_pre, body_post
