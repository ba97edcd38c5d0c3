"""Exact dependence feasibility via Fourier–Motzkin elimination.

Direction-vector legality tests over the rectangular hull of a loop nest
wrongly forbid the paper's key interchange: in block LU (Fig. 6) the KK
loop moves inside the I loop, and the flow dependence between the update's
write ``A(I,J)`` and the pivot-row read ``A(KK,J)`` *looks* violated until
the triangular coupling ``I >= KK+1`` is taken into account.  A compiler
that blocks LU therefore needs dependence testing in the *actual*
iteration space.

:func:`direction_feasible` builds the linear system

- subscript equalities (source element = sink element),
- both iterations inside their loop bounds (bounds affine, MIN/MAX upper
  and lower bounds decomposed conjunctively),
- the requested direction relation per common loop,
- any extra facts from the assumption context,

over distinct source/sink copies of the loop variables, and decides
rational satisfiability by Fourier–Motzkin elimination (exact Fraction
arithmetic; integer-strictness via the ``x < y  ==  x <= y - 1`` tightening
on integral constraints).  Rational feasibility over-approximates integer
feasibility, so "infeasible" is a *proof* of independence — the direction
the legality checks consume — while "feasible" stays conservative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from time import perf_counter as _perf_counter

from repro.analysis.refs import RefAccess
from repro.ir.expr import Expr, Max, Min
from repro.ir.stmt import Loop
from repro.obs.core import current as _obs_current
from repro.symbolic.affine import Affine, to_affine
from repro.symbolic.assume import Assumptions

_MAX_CONSTRAINTS = 4000  # FM blow-up guard; bail out conservatively


def _dedup(constraints: list[Affine]) -> list[Affine]:
    seen = set()
    out = []
    for c in constraints:
        key = (c.coeffs, c.const)
        if key not in seen:
            seen.add(key)
            out.append(c)
    return out


# Optional memoization hooks, installed by repro.pipeline.cache.  Both
# results depend only on structural content (Affine tuples, subscript and
# bound expressions), never on node identity, so cross-object reuse is safe.
_feasible_memo_hook = None
_direction_memo_hook = None


def feasible(constraints: Sequence[Affine]) -> bool:
    """Is the conjunction ``aff >= 0`` for all affs rationally satisfiable?

    Returns True (conservatively) when the elimination exceeds the size
    guard.  Reports query count and latency into the active
    :mod:`repro.obs` observer (``fm.feasible.queries`` /
    ``fm.feasible.latency_s``).
    """
    _obs = _obs_current()
    if _obs is None:
        if _feasible_memo_hook is not None:
            return _feasible_memo_hook(constraints, _feasible_uncached)
        return _feasible_uncached(constraints)
    t0 = _perf_counter()
    if _feasible_memo_hook is not None:
        result = _feasible_memo_hook(constraints, _feasible_uncached)
    else:
        result = _feasible_uncached(constraints)
    _obs.count("fm.feasible.queries")
    _obs.observe("fm.feasible.latency_s", _perf_counter() - t0)
    return result


def _feasible_uncached(constraints: Sequence[Affine]) -> bool:
    work = _dedup([c for c in constraints])
    while True:
        # constant constraints decide or drop
        rest: list[Affine] = []
        for c in work:
            if c.is_constant:
                if c.const < 0:
                    return False
            else:
                rest.append(c)
        if not rest:
            return True
        # pick the variable with the fewest pos*neg pairings
        occurrences: dict[str, tuple[int, int]] = {}
        for c in rest:
            for name, coeff in c.coeffs:
                p, n = occurrences.get(name, (0, 0))
                if coeff > 0:
                    occurrences[name] = (p + 1, n)
                else:
                    occurrences[name] = (p, n + 1)
        var = min(occurrences, key=lambda v: occurrences[v][0] * occurrences[v][1])
        pos: list[Affine] = []
        neg: list[Affine] = []
        rem: list[Affine] = []
        for c in rest:
            k = c.coeff(var)
            if k > 0:
                pos.append(c)
            elif k < 0:
                neg.append(c)
            else:
                rem.append(c)
        new = rem
        for cp in pos:
            kp = cp.coeff(var)
            for cn in neg:
                kn = -cn.coeff(var)
                # kp, kn > 0: eliminate var
                combo = cp * kn + cn * kp
                new.append(combo)
        work = _dedup(new)
        if len(work) > _MAX_CONSTRAINTS:
            return True  # give up soundly



def _lower_arm(e: Expr):
    """Affine form of a lower-bound arm, with ``+ MOD(...)`` terms dropped.

    Unroll-and-jam remainder handling writes main-loop lower bounds as
    ``base + MOD(trips, u)``; whenever the loop body executes, ``trips >=
    0`` so the MOD term is nonnegative and ``var >= base`` still holds —
    a sound relaxation.  Returns None when the arm stays unanalyzable."""
    from repro.analysis.context import _strip_mod_terms

    return to_affine(_strip_mod_terms(e))


def _upper_arm(e: Expr):
    """Affine form of an upper-bound arm; arms containing MOD (or anything
    non-affine) yield None and the constraint is dropped (relaxation)."""
    return to_affine(e)


def _bound_constraints(
    v: str, lo: Expr, hi: Expr, rename: dict[str, Affine]
) -> tuple[list[Affine], list[list[Affine]]]:
    """``lo <= v <= hi`` with MIN/MAX bounds handled exactly.

    MAX in a lower bound / MIN in an upper bound are conjunctions: added
    arm-wise to the hard constraints.  MIN in a lower bound / MAX in an
    upper bound are *disjunctions*: returned as alternative groups; the
    caller enumerates arm choices.  Non-affine arms are dropped (a
    relaxation — only ever makes the system more feasible, preserving the
    "infeasible => independent" soundness direction)."""
    hard: list[Affine] = []
    alts: list[list[Affine]] = []
    vv = Affine.variable(v).substitute(rename)

    def lower(e: Expr) -> None:
        if isinstance(e, Max):
            for a in e.args:
                lower(a)
            return
        if isinstance(e, Min):
            group = []
            for a in e.args:
                aff = _lower_arm(a)
                if aff is None:
                    return  # an unanalyzable arm voids the disjunction
                group.append(vv - aff.substitute(rename))
            alts.append(group)
            return
        aff = _lower_arm(e)
        if aff is not None:
            hard.append(vv - aff.substitute(rename))

    def upper(e: Expr) -> None:
        if isinstance(e, Min):
            for a in e.args:
                upper(a)
            return
        if isinstance(e, Max):
            group = []
            for a in e.args:
                aff = _upper_arm(a)
                if aff is None:
                    return
                group.append(aff.substitute(rename) - vv)
            alts.append(group)
            return
        aff = _upper_arm(e)
        if aff is not None:
            hard.append(aff.substitute(rename) - vv)

    lower(lo)
    upper(hi)
    return hard, alts


def direction_feasible(
    a: RefAccess,
    b: RefAccess,
    directions: Sequence[str],
    common: Sequence[Loop],
    ctx: Optional[Assumptions] = None,
    pinned: Sequence[str] = (),
) -> bool:
    """Can a dependence from ``a`` to ``b`` exist with the given direction
    vector over ``common`` loops?  ``directions[k]`` in {'<','=','>','*'}.

    Source iteration variables keep their names; sink copies are renamed
    ``name + "'"``, except that common loops with direction '=' share one
    variable.  ``pinned`` names additional loop variables held equal on
    both sides — used for queries *relative to* an inner loop, where the
    enclosing loops are at the same iteration by definition.
    True = cannot rule out; False = proved impossible.

    Reports query count and latency into the active :mod:`repro.obs`
    observer (``fm.direction.queries`` / ``fm.direction.latency_s``).
    """
    ctx = ctx or Assumptions()
    _obs = _obs_current()
    if _obs is None:
        if _direction_memo_hook is not None:
            return _direction_memo_hook(
                a, b, directions, common, ctx, pinned, _direction_feasible_uncached
            )
        return _direction_feasible_uncached(a, b, directions, common, ctx, pinned)
    t0 = _perf_counter()
    if _direction_memo_hook is not None:
        result = _direction_memo_hook(
            a, b, directions, common, ctx, pinned, _direction_feasible_uncached
        )
    else:
        result = _direction_feasible_uncached(a, b, directions, common, ctx, pinned)
    _obs.count("fm.direction.queries")
    _obs.observe("fm.direction.latency_s", _perf_counter() - t0)
    return result


def _direction_feasible_uncached(
    a: RefAccess,
    b: RefAccess,
    directions: Sequence[str],
    common: Sequence[Loop],
    ctx: Assumptions,
    pinned: Sequence[str],
) -> bool:
    if a.array != b.array or a.ref.rank != b.ref.rank:
        return False
    common_vars = [l.var for l in common]
    eq_vars = {v for v, d in zip(common_vars, directions) if d == "="}
    eq_vars |= set(pinned)

    # variable renaming for the sink side
    sink_rename: dict[str, Affine] = {}
    for l in b.loops:
        if l.var in eq_vars:
            continue
        sink_rename[l.var] = Affine.variable(l.var + "'")

    cons: list[Affine] = []

    # 1. loop bounds, both sides.  Disjunctive bounds (MIN lower / MAX
    # upper) produce alternative groups enumerated below.
    alt_groups: list[list[Affine]] = []
    for l in a.loops:
        hard, alts = _bound_constraints(l.var, l.lo, l.hi, {})
        cons.extend(hard)
        alt_groups.extend(alts)
    for l in b.loops:
        if l.var in eq_vars and any(la is l for la in a.loops):
            continue  # identical constraint already added
        name = l.var if l.var in eq_vars else l.var + "'"
        hard, alts = _bound_constraints_for(name, l.lo, l.hi, sink_rename)
        cons.extend(hard)
        alt_groups.extend(alts)

    # 2. subscript equalities
    for ea, eb in zip(a.ref.index, b.ref.index):
        aff_a, aff_b = to_affine(ea), to_affine(eb)
        if aff_a is None or aff_b is None:
            continue  # that dimension constrains nothing
        diff = aff_a - aff_b.substitute(sink_rename)
        cons.append(diff)
        cons.append(-diff)

    # 3. direction constraints (integral strictness: < means <= -1)
    for v, d in zip(common_vars, directions):
        if d in ("=", "*"):
            continue
        src = Affine.variable(v)
        snk = Affine.variable(v + "'")
        if d == "<":
            cons.append(snk - src - 1)
        elif d == ">":
            cons.append(src - snk - 1)

    # 4. facts from the context.  Bounds for a sink-side (primed) variable
    # must have their iteration variables renamed to the sink copy too —
    # a relation like KK <= I-1 is per-iteration, so the sink's instance
    # is KK' <= I'-1, never KK' <= I-1 — and a fact mentioning an
    # iteration variable the relevant side does not have is inapplicable.
    src_vars = {l.var for l in a.loops}
    snk_vars = {l.var for l in b.loops}
    cons.extend(_context_facts(ctx, cons, sink_rename, src_vars, snk_vars))

    # Enumerate the disjunctive arm choices (capped; overflow groups are
    # dropped, which relaxes toward "feasible" — the sound direction).
    from itertools import product as _product

    if len(alt_groups) > 4:
        alt_groups = alt_groups[:4]
    if not alt_groups:
        return feasible(cons)
    for choice in _product(*alt_groups):
        if feasible(cons + list(choice)):
            return True
    return False


def _bound_constraints_for(
    name: str, lo: Expr, hi: Expr, rename: dict[str, Affine]
) -> tuple[list[Affine], list[list[Affine]]]:
    """Like :func:`_bound_constraints` but the variable itself is already
    renamed (the sink copy) while the bound expressions go through
    ``rename``."""
    fake = Affine.variable(name)
    # reuse the main routine by renaming a placeholder onto `name`
    rename2 = dict(rename)
    return _bound_constraints_prerenamed(fake, lo, hi, rename2)


def _bound_constraints_prerenamed(
    vv: Affine, lo: Expr, hi: Expr, rename: dict[str, Affine]
) -> tuple[list[Affine], list[list[Affine]]]:
    hard: list[Affine] = []
    alts: list[list[Affine]] = []

    def lower(e: Expr) -> None:
        if isinstance(e, Max):
            for x in e.args:
                lower(x)
            return
        if isinstance(e, Min):
            group = []
            for x in e.args:
                aff = _lower_arm(x)
                if aff is None:
                    return
                group.append(vv - aff.substitute(rename))
            alts.append(group)
            return
        aff = _lower_arm(e)
        if aff is not None:
            hard.append(vv - aff.substitute(rename))

    def upper(e: Expr) -> None:
        if isinstance(e, Min):
            for x in e.args:
                upper(x)
            return
        if isinstance(e, Max):
            group = []
            for x in e.args:
                aff = _upper_arm(x)
                if aff is None:
                    return
                group.append(aff.substitute(rename) - vv)
            alts.append(group)
            return
        aff = _upper_arm(e)
        if aff is not None:
            hard.append(aff.substitute(rename) - vv)

    lower(lo)
    upper(hi)
    return hard, alts


def _context_facts(
    ctx: Assumptions,
    existing: Iterable[Affine],
    sink_rename: Optional[dict[str, Affine]] = None,
    src_vars: Optional[set[str]] = None,
    snk_vars: Optional[set[str]] = None,
) -> list[Affine]:
    """Export the context's variable bounds as affine facts for the names
    appearing in the system.

    A primed (sink-copy) variable inherits the bounds of its base name with
    the bound expression renamed through ``sink_rename``.  A bound is only
    applicable to a side when every iteration variable it mentions belongs
    to that side's loop stack — per-iteration relations (``KK <= J-1``)
    must never leak to a copy that has no ``J``.
    """
    sink_rename = sink_rename or {}
    src_vars = src_vars or set()
    snk_vars = snk_vars or set()
    iter_vars = src_vars | snk_vars
    mentioned: set[str] = set()
    for c in existing:
        mentioned |= set(c.variables)
    out: list[Affine] = []
    for name in mentioned:
        primed = name.endswith("'")
        base = name[:-1] if primed else name
        side_vars = snk_vars if primed else src_vars

        def emit(bound: Affine, is_lower: bool) -> None:
            if (bound.variables & iter_vars) - side_vars:
                return  # mentions an iteration variable this side lacks
            b = bound.substitute(sink_rename) if primed else bound
            out.append(Affine.variable(name) - b if is_lower else b - Affine.variable(name))

        lower, upper = ctx.bounds_of(base)
        for bound in lower:
            emit(bound, True)
        for bound in upper:
            emit(bound, False)
    return out
