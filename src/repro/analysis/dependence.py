"""Data-dependence testing (Section 2.1 of the paper).

For every pair of references to the same array, at least one a write, the
tester decides whether two iterations of the common enclosing loops can
touch the same element, and if so constrains the *distance vector*
(sink iteration minus source iteration, one entry per common loop).  The
classic test ladder is implemented:

- **ZIV** (zero index variables): constant-vs-constant, decided exactly,
  symbolically under the assumption context;
- **strong SIV** (same single index variable, equal coefficients):
  exact distance, trip-count checked when bounds are known;
- **weak-zero / weak-crossing SIV and MIV**: a GCD existence test; when it
  cannot rule the pair out, the direction entry degrades to ``'*'``
  (unknown), which every transformation treats as "assume the worst";
- subscripts that are not affine (MIN/MAX, subscripted subscripts like
  IF-inspection's ``KLB(KN)``) constrain nothing.

The tester is *sound, not exact*: it may report a dependence that does not
exist (the Sec. 3.3 recurrence is the paper's own example — distance
abstractions must report it, and section analysis later refines the
verdict), but a reported independence is always real.  The property-based
suite cross-checks against a brute-force access-enumeration oracle.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.feasibility import memo_query
from repro.analysis.refs import RefAccess, collect_accesses
from repro.analysis.sections import expr_range, ranges_for_loops
from repro.analysis.subscripts import analyze_subscript
from repro.obs.core import count as _obs_count
from repro.ir.expr import free_vars
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.symbolic.affine import to_affine
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import prove_lt


class DependenceKind(enum.Enum):
    FLOW = "flow"  # write then read (true dependence)
    ANTI = "anti"  # read then write
    OUTPUT = "output"  # write then write
    INPUT = "input"  # read then read (reuse information only)

    @staticmethod
    def of(source_is_write: bool, sink_is_write: bool) -> "DependenceKind":
        if source_is_write and sink_is_write:
            return DependenceKind.OUTPUT
        if source_is_write:
            return DependenceKind.FLOW
        if sink_is_write:
            return DependenceKind.ANTI
        return DependenceKind.INPUT


# Direction entries: '<' source at an earlier iteration, '=' same
# iteration, '>' later (only at non-leading positions — vectors are
# re-oriented so the leading decisive entry is '<'), '*' unknown.
Direction = str


@dataclass(frozen=True)
class Dependence:
    """An oriented dependence edge: source executes no later than sink.

    ``distance[j]`` is the iteration distance on the j-th common loop
    (``None`` = unknown); ``direction[j]`` in {'<','=','>','*'}.
    """

    source: RefAccess
    sink: RefAccess
    kind: DependenceKind
    loops: tuple[Loop, ...]
    distance: tuple[Optional[int], ...]
    direction: tuple[Direction, ...]

    @property
    def array(self) -> str:
        return self.source.array

    @property
    def loop_independent(self) -> bool:
        return all(d == "=" for d in self.direction)

    @property
    def carrier(self) -> Optional[Loop]:
        """Outermost common loop that carries the dependence (Sec. 2.1)."""
        for loop, d in zip(self.loops, self.direction):
            if d != "=":
                return loop
        return None

    def describe(self) -> str:
        vec = ",".join(d if d != "<" else f"<({dist})" if dist is not None else "<"
                       for d, dist in zip(self.direction, self.distance))
        return (
            f"{self.kind.value} dep on {self.array}: "
            f"{self.source.ref!r}@{self.source.position} -> "
            f"{self.sink.ref!r}@{self.sink.position} [{vec}]"
        )


# ---------------------------------------------------------------------------
# per-dimension constraint records
# ---------------------------------------------------------------------------

_IMPOSSIBLE = "impossible"


def _loop_trip_bound(loop: Loop, ctx: Assumptions) -> Optional[int]:
    """Constant upper bound on (hi - lo), i.e. on any in-loop distance."""
    lo, hi = to_affine(loop.lo), to_affine(loop.hi)
    if lo is None or hi is None:
        return None
    ub = ctx.upper_bound(hi - lo)
    return None if ub is None else int(ub)


def _test_dimension(
    sub_a,
    sub_b,
    common_vars: tuple[str, ...],
    foreign_vars: frozenset[str],
    ctx: Assumptions,
):
    """Constrain one subscript dimension.

    Returns ``_IMPOSSIBLE`` (proved independent), or a dict mapping the
    index of a common loop to a required integer distance, or the special
    key ``'*'`` listed in ``unknowns`` (set of loop indices whose distance
    is unconstrained by this dimension but involved in it).
    Shape: (constraints: dict[int, int], unknowns: set[int]) — empty both
    means the dimension is satisfied identically (no information).
    """
    if not (sub_a.affine and sub_b.affine):
        return {}, set()  # non-affine: constrains nothing
    # Foreign loop variables (inner loops not common to both accesses) can
    # realize many values, so a dimension mentioning one is usually
    # satisfiable for *any* common-loop distance: no constraint.  (Sound;
    # this is what makes the Sec. 3.3 recurrence "exist for every value"
    # under distance abstractions.)
    a_foreign = sub_a.rest.variables & foreign_vars
    b_foreign = sub_b.rest.variables & foreign_vars
    if a_foreign or b_foreign:
        return {}, set()
    diff_rest = sub_a.rest - sub_b.rest  # (rest_a - rest_b)
    nz = [k for k, (ca, cb) in enumerate(zip(sub_a.coeffs, sub_b.coeffs)) if ca or cb]
    if not nz:
        # ZIV: subscripts are symbolic constants.
        z = ctx.is_zero(diff_rest)
        if z is False:
            return _IMPOSSIBLE
        return {}, set()  # equal or unknown: no constraint either way
    if len(nz) == 1:
        k = nz[0]
        ca, cb = sub_a.coeffs[k], sub_b.coeffs[k]
        if ca == cb:
            # strong SIV: ca*i + ra = ca*i' + rb -> i' - i = (ra - rb)/ca
            d = diff_rest / ca
            dc = d.constant_value()
            if dc is None:
                return {}, {k}  # symbolic distance: unknown
            if dc.denominator != 1:
                return _IMPOSSIBLE
            return {k: int(dc)}, set()
        # weak SIV: ca*i - cb*i' = rb - ra ; GCD existence test
        rc = (-diff_rest).constant_value()
        if rc is not None and rc.denominator == 1:
            g = math.gcd(abs(ca), abs(cb))
            if g and int(rc) % g != 0:
                return _IMPOSSIBLE
        return {}, {k}
    # MIV: GCD test across all involved loops
    rc = (-diff_rest).constant_value()
    if rc is not None and rc.denominator == 1:
        g = 0
        for k in nz:
            g = math.gcd(g, abs(sub_a.coeffs[k]))
            g = math.gcd(g, abs(sub_b.coeffs[k]))
        if g and int(rc) % g != 0:
            return _IMPOSSIBLE
    return {}, set(nz)


def dependences_between(
    a: RefAccess,
    b: RefAccess,
    ctx: Optional[Assumptions] = None,
    include_input: bool = False,
    within: Optional[Loop] = None,
) -> list[Dependence]:
    """All dependences between two accesses of the same array.

    Result is oriented (source executes first).  Unknown leading
    directions produce a pair of edges (one per orientation) so the
    dependence graph stays sound for cycle detection.

    ``within`` restricts the common-loop vector to loops at or inside the
    given loop — the view loop distribution needs ("dependence within one
    iteration of everything outer"): loops outside ``within`` are treated
    as fixed symbols.
    """
    if a.array != b.array:
        return []
    if a is b and not a.is_write:
        return []
    if not include_input and not (a.is_write or b.is_write):
        return []
    if a.ref.rank != b.ref.rank:
        return []  # ill-typed program; nothing sensible to report
    ctx = ctx or Assumptions()
    common = a.common_loops(b)
    if within is not None:
        at = next((k for k, l in enumerate(common) if l is within), None)
        if at is None:
            return []  # not both inside the loop of interest
        common = common[at:]
    common_vars = tuple(l.var for l in common)
    foreign = (frozenset(a.loop_vars) | frozenset(b.loop_vars)) - set(common_vars)

    constraints: dict[int, int] = {}
    for ea, eb in zip(a.ref.index, b.ref.index):
        if _ranges_disjoint(ea, eb, a, b, ctx, within):
            return []  # the two references never touch a common element
        sub_a = analyze_subscript(ea, common_vars)
        sub_b = analyze_subscript(eb, common_vars)
        result = _test_dimension(sub_a, sub_b, common_vars, foreign, ctx)
        if result == _IMPOSSIBLE:
            return []
        cons, _unk = result
        for k, v in cons.items():
            if k in constraints and constraints[k] != v:
                return []  # conflicting exact distances: no common solution
            constraints[k] = v

    # A distance cannot exceed its loop's trip count — provided source and
    # sink run that loop over one range: every common loop its bounds
    # mention (a triangular or rhomboidal coupling) is itself at distance 0.
    for k, dist in constraints.items():
        coupled = free_vars(common[k].lo) | free_vars(common[k].hi)
        if all(constraints.get(q) == 0 for q, v in enumerate(common_vars) if v in coupled):
            trip = _loop_trip_bound(common[k], ctx)
            if trip is not None and abs(dist) > trip:
                return []

    # Unconstrained common loops default to '*': the same element can be
    # touched at ANY distance on a loop the subscripts ignore.
    distance: list[Optional[int]] = []
    direction: list[Direction] = []
    for k in range(len(common)):
        if k in constraints:
            d = constraints[k]
            distance.append(d)
            direction.append("=" if d == 0 else ("<" if d > 0 else ">"))
        else:
            distance.append(None)
            direction.append("*")

    if a is b and all(x == "=" for x in direction):
        return []  # an access trivially "depends on itself" at distance 0
    return _orient(a, b, common, distance, direction, include_input)


def _ranges_disjoint(
    ea, eb, a: RefAccess, b: RefAccess, ctx: Assumptions, within: Optional[Loop] = None
) -> bool:
    """Section-style refutation: the subscript value *ranges* of the two
    references are provably separated.

    This is the paper's Sec. 3.3/5.4 precision — "examining the sections
    ... reveals that the recurrence only exists for the element A(L,L)" —
    folded into the pair test: after index-set splitting has separated the
    ranges, the dependence genuinely disappears.

    For a ``within``-relative query, only loops at or inside ``within``
    sweep; everything outer stays a shared fixed symbol (distribution
    reorders nothing outside the loop being distributed).
    """
    def stack(acc: RefAccess):
        return acc.loops if within is None else acc.loops_from(within)

    ra = expr_range(ea, ranges_for_loops(stack(a)), ctx)
    rb = expr_range(eb, ranges_for_loops(stack(b)), ctx)
    if ra is None or rb is None:
        return False
    return prove_lt(ra[1], rb[0], ctx) or prove_lt(rb[1], ra[0], ctx)


def _flip(distance, direction):
    dist = [None if x is None else -x for x in distance]
    flip = {"<": ">", ">": "<", "=": "=", "*": "*"}
    return dist, [flip[d] for d in direction]


def _orient(a, b, common, distance, direction, include_input) -> list[Dependence]:
    """Resolve source/sink from the sign of the first decisive entry."""
    first = next((k for k, d in enumerate(direction) if d != "="), None)
    out: list[Dependence] = []

    def emit(src: RefAccess, snk: RefAccess, dist, dirs):
        kind = DependenceKind.of(src.is_write, snk.is_write)
        if kind == DependenceKind.INPUT and not include_input:
            return
        out.append(Dependence(src, snk, kind, tuple(common), tuple(dist), tuple(dirs)))

    if first is None:
        # loop-independent: orientation by textual order; same statement ->
        # reads execute before the write.
        if a.position < b.position or (a.position == b.position and not a.is_write):
            emit(a, b, distance, direction)
        else:
            emit(b, a, distance, direction)
        return out

    lead = direction[first]
    if lead == "<":
        emit(a, b, distance, direction)
    elif lead == ">":
        dist, dirs = _flip(distance, direction)
        emit(b, a, dist, dirs)
    else:  # '*' leading: both orientations are possible
        emit(a, b, distance, direction)
        if a is not b:
            dist, dirs = _flip(distance, direction)
            emit(b, a, dist, dirs)
    return out


# Optional memoization hook, installed by repro.pipeline.cache.  When set it
# is called as ``hook(root, ctx, include_input, compute)`` and must return
# the dependence list (computing via ``compute`` on a miss).  Cached lists
# may only be reused for the *same* root object: Dependence records hold
# loop-node references that downstream consumers compare by identity.
_memo_hook = None


def all_dependences(
    root: Procedure | Stmt | Sequence[Stmt],
    ctx: Optional[Assumptions] = None,
    include_input: bool = False,
) -> list[Dependence]:
    """Every dependence among array accesses under ``root``.

    Observed as ``dependence.*`` (see :func:`memo_query`), plus the result
    size as counter ``dependence.edges``.
    """
    args = (root, ctx or Assumptions(), include_input)
    deps = memo_query(_memo_hook, _all_dependences_uncached, args, "dependence")
    _obs_count("dependence.edges", len(deps))
    return deps


def _all_dependences_uncached(
    root: Procedure | Stmt | Sequence[Stmt],
    ctx: Assumptions,
    include_input: bool,
) -> list[Dependence]:
    accs = collect_accesses(root)
    by_array: dict[str, list[RefAccess]] = {}
    for acc in accs:
        by_array.setdefault(acc.array, []).append(acc)
    deps: list[Dependence] = []
    for group in by_array.values():
        for i in range(len(group)):
            for j in range(i, len(group)):
                deps.extend(dependences_between(group[i], group[j], ctx, include_input))
    return deps
