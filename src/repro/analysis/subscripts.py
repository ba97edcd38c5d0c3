"""Affine decomposition of array subscripts.

A subscript expression is split, relative to a set of index (loop)
variables, into per-index integer coefficients plus a *symbolic remainder*
(an affine form over non-index symbols such as ``N`` or ``KS``).  The
dependence tests and section analysis both consume this decomposition;
anything non-affine is flagged and treated conservatively downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.ir.expr import Expr
from repro.symbolic.affine import Affine, to_affine


@dataclass(frozen=True)
class SubscriptInfo:
    """One subscript, decomposed against ``index_vars``.

    ``coeffs[k]`` is the integer coefficient of ``index_vars[k]``;
    ``rest`` is the affine remainder over everything else.  ``affine`` is
    False when the expression did not convert (MIN/MAX, array-valued
    subscripts like IF-inspection's KLB(KN), products of variables) — in
    that case all other fields are meaningless.
    """

    expr: Expr
    index_vars: tuple[str, ...]
    affine: bool
    coeffs: tuple[int, ...] = ()
    rest: Optional[Affine] = None

    @property
    def is_constant(self) -> bool:
        """No index variable occurs (ZIV subscript)."""
        return self.affine and all(c == 0 for c in self.coeffs)

    @property
    def single_index(self) -> Optional[int]:
        """Position of the unique index var with nonzero coefficient (SIV),
        or None when zero or several occur."""
        nz = [k for k, c in enumerate(self.coeffs) if c != 0]
        return nz[0] if len(nz) == 1 else None

    def coeff_of(self, var: str) -> int:
        try:
            return self.coeffs[self.index_vars.index(var)]
        except ValueError:
            return 0


def analyze_subscript(expr: Expr, index_vars: Sequence[str]) -> SubscriptInfo:
    """Decompose ``expr`` against ``index_vars``; conservative on failure."""
    index_vars = tuple(index_vars)
    aff = to_affine(expr)
    if aff is None:
        return SubscriptInfo(expr, index_vars, affine=False)
    coeffs: list[int] = []
    for v in index_vars:
        c = aff.coeff(v)
        if c.denominator != 1:
            return SubscriptInfo(expr, index_vars, affine=False)
        coeffs.append(int(c))
    # dropping terms keeps the form canonical: one construction
    rest = Affine(tuple(t for t in aff.coeffs if t[0] not in index_vars), aff.const)
    # Any *other* loop-variable-like symbol in `rest` is fine: it is either
    # a symbolic parameter or an outer variable not under test, both of
    # which the dependence tests handle symbolically.
    if not rest.is_integral():
        return SubscriptInfo(expr, index_vars, affine=False)
    return SubscriptInfo(expr, index_vars, affine=True, coeffs=tuple(coeffs), rest=rest)
