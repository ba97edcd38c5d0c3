"""Inequality assumptions and sign decisions over affine forms.

The transformations need a small number of *decidable* questions answered
under a context of facts such as ``1 <= KS``, ``KS <= N`` or
``K <= N - 1``:

- is ``e >= 0`` / ``e > 0`` / ``e == 0``?
- compare two loop bounds; prune MIN/MAX arms.
- is one array section contained in / disjoint from another?

The engine keeps, per variable, a set of affine *lower* and *upper* bounds
and decides the sign of a target affine form by recursively substituting
bounds for variables (choosing a lower or upper bound according to the sign
of the coefficient) until a constant candidate emerges.  This is a bounded,
sound-but-incomplete procedure: ``None`` answers mean "unknown", and every
caller treats unknown conservatively.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.ir.expr import Expr
from repro.symbolic.affine import Affine, Rat, to_affine

_MAX_DEPTH = 5
_MEMO_CAP = 8192  # answers kept per context; cleared when full


class Assumptions:
    """A conjunction of affine inequalities usable as a decision context.

    Facts are added with :meth:`assume_ge` / :meth:`assume_le` /
    :meth:`assume_range`; arbitrary affine facts ``aff >= 0`` that mention
    several variables are stored as bounds on each mentioned variable
    (``c·v >= -rest`` ⇒ a bound on ``v``), which the recursive substitution
    can then chain through.

    Every decision is a pure function of (the facts, the operands), so the
    context answers each question once: :meth:`memo` keeps the answers
    until :meth:`_add_fact` — the only mutator — changes the facts.
    """

    def __init__(self) -> None:
        self._lo: dict[str, list[Affine]] = {}
        self._hi: dict[str, list[Affine]] = {}
        self._memo: dict = {}

    # ---- building the context -------------------------------------------
    def copy(self) -> "Assumptions":
        out = Assumptions()
        out._lo = {k: list(v) for k, v in self._lo.items()}
        out._hi = {k: list(v) for k, v in self._hi.items()}
        return out

    def _coerce(self, e) -> Optional[Affine]:
        if isinstance(e, Affine):
            return e
        if isinstance(e, (int, Fraction)):
            return Affine.constant(e)
        if isinstance(e, str):
            return Affine.variable(e)
        if isinstance(e, Expr):
            return to_affine(e)
        return None

    def assume_ge(self, left, right) -> "Assumptions":
        """Record the fact ``left >= right``. Returns self for chaining."""
        l, r = self._coerce(left), self._coerce(right)
        if l is None or r is None:
            return self  # non-affine facts are simply unusable, not errors
        self._add_fact(l - r)
        return self

    def assume_le(self, left, right) -> "Assumptions":
        """Record the fact ``left <= right``."""
        return self.assume_ge(right, left)

    def assume_range(self, var: str, lo=None, hi=None) -> "Assumptions":
        """Record ``lo <= var <= hi`` (either side optional)."""
        if lo is not None:
            self.assume_ge(var, lo)
        if hi is not None:
            self.assume_le(var, hi)
        return self

    def _add_fact(self, aff: Affine) -> None:
        """Store ``aff >= 0`` as a bound on each variable it mentions."""
        if aff.is_constant:
            return
        self._memo.clear()
        for name, coeff in aff.coeffs:
            rest = aff - Affine.make({name: coeff})
            # coeff·name >= -rest: a lower bound -rest/coeff on name, an
            # upper one when coeff < 0
            bound = rest / -coeff
            bounds = (self._lo if coeff > 0 else self._hi).setdefault(name, [])
            if bound not in bounds:
                bounds.append(bound)

    def bounds_of(self, name: str) -> tuple[tuple[Affine, ...], tuple[Affine, ...]]:
        """The stored (lower, upper) affine bounds on ``name``, read-only."""
        return tuple(self._lo.get(name, ())), tuple(self._hi.get(name, ()))

    def facts_key(self) -> tuple:
        """Hashable canonical key of the stored facts.

        Two contexts with the same provable facts (same bound sets, in any
        insertion order) produce equal keys, so analysis results computed
        under one context can be reused under a structurally equal one
        (:mod:`repro.pipeline.cache`).
        """

        def side(bounds: dict[str, list[Affine]]) -> tuple:
            return tuple(
                (name, tuple(sorted((b.coeffs, b.const) for b in bs)))
                for name, bs in sorted(bounds.items())
                if bs
            )

        return self.memo("facts_key", lambda: (side(self._lo), side(self._hi)))

    # ---- decisions --------------------------------------------------------
    def memo(self, key, compute):
        """``compute()``, evaluated once per ``key`` while the facts stand.

        For questions whose answer depends on nothing but these facts and
        what ``key`` spells out (the decisions below;
        :func:`repro.analysis.sections.expr_range` under this context).
        A :meth:`copy` starts empty; a full table is cleared, not grown.
        """
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = compute()
        if len(self._memo) >= _MEMO_CAP:
            self._memo.clear()
        self._memo[key] = value
        return value

    def _const_bounds(self, aff: Affine, want_upper: bool, depth: int, seen: frozenset[str]) -> list[Rat]:
        """Constant candidates bounding ``aff`` from above (or below)."""
        if aff.is_constant:
            return [aff.const]
        if depth <= 0:
            return []
        # Pick the first variable and substitute each applicable bound.
        name, coeff = aff.coeffs[0]
        if name in seen:
            return []
        want_var_upper = (coeff > 0) == want_upper
        candidates = (self._hi if want_var_upper else self._lo).get(name, [])
        out: list[Rat] = []
        rest = Affine(aff.coeffs[1:], aff.const)  # still canonical
        for bound in candidates:
            substituted = rest + bound * coeff
            out.extend(
                self._const_bounds(substituted, want_upper, depth - 1, seen | {name})
            )
        return out

    def _best_bound(self, e, want_upper: bool) -> Optional[Rat]:
        aff = self._coerce(e)
        if aff is None:
            return None

        def best() -> Optional[Rat]:
            vals = self._const_bounds(aff, want_upper, _MAX_DEPTH, frozenset())
            if not vals:
                return None
            return min(vals) if want_upper else max(vals)

        return self.memo(("bound", want_upper, aff), best)

    def lower_bound(self, e) -> Optional[Rat]:
        """Best provable constant lower bound, or None."""
        return self._best_bound(e, want_upper=False)

    def upper_bound(self, e) -> Optional[Rat]:
        """Best provable constant upper bound, or None."""
        return self._best_bound(e, want_upper=True)

    def is_nonneg(self, e) -> Optional[bool]:
        """True if provably >= 0, False if provably < 0, else None."""
        lb = self.lower_bound(e)
        if lb is not None and lb >= 0:
            return True
        ub = self.upper_bound(e)
        if ub is not None and ub < 0:
            return False
        return None

    def is_zero(self, e) -> Optional[bool]:
        aff = self._coerce(e)
        if aff is None:
            return None
        if aff.is_constant:
            return aff.const == 0
        lb, ub = self.lower_bound(aff), self.upper_bound(aff)
        if lb is not None and ub is not None and lb == ub == 0:
            return True
        if (lb is not None and lb > 0) or (ub is not None and ub < 0):
            return False
        return None

    def compare(self, left, right) -> Optional[str]:
        """Relate two affine quantities: one of '<', '<=', '==', '>=', '>',
        or None when undecidable.  The strongest provable relation wins."""
        # the operand types are part of the question: 1 == 1.0 == True as
        # dict keys, but only the integers are affine
        key = ("compare", type(left), left, type(right), right)
        return self.memo(key, lambda: self._compare(left, right))

    def _compare(self, left, right) -> Optional[str]:
        l, r = self._coerce(left), self._coerce(right)
        if l is None or r is None:
            return None
        d = l - r
        if d.is_constant:
            if d.const == 0:
                return "=="
            return "<" if d.const < 0 else ">"
        lb, ub = self.lower_bound(d), self.upper_bound(d)
        if lb is not None and lb > 0:
            return ">"
        if lb is not None and lb >= 0:
            return ">="
        if ub is not None and ub < 0:
            return "<"
        if ub is not None and ub <= 0:
            return "<="
        return None

    def implies_le(self, left, right) -> bool:
        """Convenience: is ``left <= right`` provable?"""
        rel = self.compare(left, right)
        return rel in ("<", "<=", "==")

