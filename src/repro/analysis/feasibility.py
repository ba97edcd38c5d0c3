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
rational satisfiability by Fourier–Motzkin elimination (exact arithmetic:
rows of ints stay ints under ``cp*kn + cn*kp``; integer-strictness via the
``x < y  ==  x <= y - 1`` tightening on integral constraints).  Rational
feasibility over-approximates integer feasibility, so "infeasible" is a
*proof* of independence — the direction the legality checks consume —
while "feasible" stays conservative.
"""

from __future__ import annotations

from itertools import product as _product
from time import perf_counter as _perf_counter
from typing import Callable, Iterable, Optional, Sequence

from repro.analysis.context import bound_arms
from repro.analysis.refs import RefAccess
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


def memo_query(hook: Optional[Callable], compute: Callable, args: tuple, metric: str):
    """Answer one analysis query: through the memo ``hook`` when one is
    installed (called as ``hook(*args, compute)``), else ``compute(*args)``;
    under an active :mod:`repro.obs` observer also count it into
    ``<metric>.queries`` and time it into ``<metric>.latency_s`` (cache
    hits included — per-region hit rates live in the analysis cache)."""
    obs = _obs_current()
    t0 = _perf_counter() if obs is not None else 0.0
    result = hook(*args, compute) if hook is not None else compute(*args)
    if obs is not None:
        obs.count(f"{metric}.queries")
        obs.observe(f"{metric}.latency_s", _perf_counter() - t0)
    return result


def feasible(constraints: Sequence[Affine]) -> bool:
    """Is the conjunction ``aff >= 0`` for all affs rationally satisfiable?

    Returns True (conservatively) when the elimination exceeds the size
    guard.  Observed as ``fm.feasible.*`` (see :func:`memo_query`).
    """
    return memo_query(_feasible_memo_hook, _feasible_uncached, (constraints,), "fm.feasible")


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
        if len(rem) + len(pos) * len(neg) > _MAX_CONSTRAINTS:
            return True  # give up soundly, before building the product
        new = rem
        for cp in pos:
            kp = cp.coeff(var)
            for cn in neg:
                kn = -cn.coeff(var)
                # kp, kn > 0: eliminate var
                combo = cp * kn + cn * kp
                new.append(combo)
        work = _dedup(new)


def _bound_constraints(
    loop: Loop, rename: dict[str, Affine]
) -> tuple[list[Affine], list[list[Affine]]]:
    """``lo <= loop.var <= hi`` with the variable and the bound expressions
    renamed through ``rename`` (empty for the source iteration, the primed
    copies for the sink), MIN/MAX bounds handled exactly.

    Conjunctive arms (MAX lower / MIN upper) join the hard constraints;
    disjunctive bounds (MIN lower / MAX upper) come back as alternative
    groups whose arm choices the caller enumerates.  A non-affine arm —
    anything with MOD left in it, say — drops its conjunct or voids its
    whole disjunction: a relaxation, which only ever makes the system more
    feasible and so preserves "infeasible => independent"."""
    hard: list[Affine] = []
    alts: list[list[Affine]] = []
    vv = Affine.variable(loop.var).substitute(rename)
    for is_lower, arms in bound_arms(loop):
        affs = [to_affine(a) for a in arms]
        if any(aff is None for aff in affs):
            continue
        group = [
            vv - aff.substitute(rename) if is_lower else aff.substitute(rename) - vv
            for aff in affs
        ]
        if len(group) == 1:
            hard += group
        else:
            alts.append(group)
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

    Observed as ``fm.direction.*`` (see :func:`memo_query`).
    """
    return memo_query(
        _direction_memo_hook,
        _direction_feasible_uncached,
        (a, b, directions, common, ctx or Assumptions(), pinned),
        "fm.direction",
    )


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
        hard, alts = _bound_constraints(l, {})
        cons.extend(hard)
        alt_groups.extend(alts)
    for l in b.loops:
        if l.var in eq_vars and any(la is l for la in a.loops):
            continue  # identical constraint already added
        hard, alts = _bound_constraints(l, sink_rename)
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
    if len(alt_groups) > 4:
        alt_groups = alt_groups[:4]
    if not alt_groups:
        return feasible(cons)
    for choice in _product(*alt_groups):
        if feasible(cons + list(choice)):
            return True
    return False


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
