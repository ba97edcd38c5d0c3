"""Canonical affine (linear) forms with exact rational coefficients.

An :class:`Affine` is ``const + sum(coeffs[v] * v)``.  Conversion from IR
expressions (:func:`to_affine`) succeeds exactly when the expression is
affine in its variables: sums, differences, products with a constant side,
and integer division by a constant that exactly divides every coefficient.
Everything the dependence tests, section algebra, and triangular-interchange
bound formulas consume goes through this form, so "is this subscript
analyzable" has one definition across the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from repro.ir.expr import (
    BinOp,
    Const,
    Expr,
    IntDiv,
    Var,
    add as e_add,
    mul as e_mul,
    sub as e_sub,
)

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class Affine:
    """Immutable affine form: ``const + Σ coeffs[v]·v``.

    ``coeffs`` never stores zero coefficients; equality is exact.
    """

    coeffs: tuple[tuple[str, Fraction], ...]
    const: Fraction

    # ---- construction ---------------------------------------------------
    @staticmethod
    def make(coeffs: Mapping[str, Rat] | None = None, const: Rat = 0) -> "Affine":
        items = []
        if coeffs:
            for name in sorted(coeffs):
                c = Fraction(coeffs[name])
                if c != 0:
                    items.append((name, c))
        return Affine(tuple(items), Fraction(const))

    @staticmethod
    def constant(value: Rat) -> "Affine":
        return Affine((), Fraction(value))

    @staticmethod
    def variable(name: str) -> "Affine":
        return Affine(((name, Fraction(1)),), Fraction(0))

    # ---- inspection ------------------------------------------------------
    def coeff(self, name: str) -> Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Optional[Fraction]:
        return self.const if self.is_constant else None

    def is_integral(self) -> bool:
        """True when all coefficients and the constant are integers."""
        return self.const.denominator == 1 and all(c.denominator == 1 for _, c in self.coeffs)

    # ---- arithmetic ------------------------------------------------------
    def _as_dict(self) -> dict[str, Fraction]:
        return dict(self.coeffs)

    def __add__(self, other: "Affine | Rat") -> "Affine":
        if isinstance(other, (int, Fraction)):
            return Affine(self.coeffs, self.const + other)
        d = self._as_dict()
        for n, c in other.coeffs:
            d[n] = d.get(n, Fraction(0)) + c
        return Affine.make(d, self.const + other.const)

    def __radd__(self, other: Rat) -> "Affine":
        return self + other

    def __sub__(self, other: "Affine | Rat") -> "Affine":
        if isinstance(other, (int, Fraction)):
            return Affine(self.coeffs, self.const - other)
        return self + (other * -1)

    def __rsub__(self, other: Rat) -> "Affine":
        return (self * -1) + other

    def __mul__(self, k: Rat) -> "Affine":
        k = Fraction(k)
        if k == 0:
            return Affine.constant(0)
        return Affine(tuple((n, c * k) for n, c in self.coeffs), self.const * k)

    def __rmul__(self, k: Rat) -> "Affine":
        return self * k

    def __neg__(self) -> "Affine":
        return self * -1

    def substitute(self, mapping: Mapping[str, "Affine"]) -> "Affine":
        """Replace variables by affine forms."""
        out = Affine.constant(self.const)
        for n, c in self.coeffs:
            if n in mapping:
                out = out + mapping[n] * c
            else:
                out = out + Affine.make({n: c})
        return out

    def eval(self, env: Mapping[str, Rat]) -> Fraction:
        """Evaluate with every variable bound (KeyError otherwise)."""
        total = self.const
        for n, c in self.coeffs:
            total += c * Fraction(env[n])
        return total

    def __repr__(self) -> str:
        parts = []
        for n, c in self.coeffs:
            parts.append(f"{c}*{n}" if c != 1 else n)
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


def to_affine(e: Expr) -> Optional[Affine]:
    """Convert an IR expression to affine form; None when not affine.

    Float literals are rejected — affine reasoning is for subscripts and
    bounds, which are integral.  ``IntDiv`` converts only when the divisor
    is a constant that exactly divides every coefficient and the constant
    term (so truncation provably does nothing); otherwise None, keeping the
    analysis conservative.
    """
    if isinstance(e, Const):
        if isinstance(e.value, float):
            return None
        return Affine.constant(e.value)
    if isinstance(e, Var):
        return Affine.variable(e.name)
    if isinstance(e, BinOp):
        if e.op == "+":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l + r
        if e.op == "-":
            l, r = to_affine(e.left), to_affine(e.right)
            return None if l is None or r is None else l - r
        if e.op == "*":
            l, r = to_affine(e.left), to_affine(e.right)
            if l is None or r is None:
                return None
            lc, rc = l.constant_value(), r.constant_value()
            if lc is not None:
                return r * lc
            if rc is not None:
                return l * rc
            return None
        return None
    if isinstance(e, IntDiv):
        l, r = to_affine(e.left), to_affine(e.right)
        if l is None or r is None:
            return None
        rc = r.constant_value()
        if rc is None or rc == 0:
            return None
        q = l * Fraction(1, int(rc)) if rc.denominator == 1 else None
        if q is None:
            return None
        return q if q.is_integral() else None
    return None


def from_affine(a: Affine) -> Expr:
    """Rebuild a tidy IR expression from an affine form.

    Requires integral coefficients (loop bounds and subscripts are
    integers); raises ValueError otherwise.
    """
    if not a.is_integral():
        raise ValueError(f"cannot render non-integral affine form {a!r}")
    expr: Expr = Const(int(a.const)) if not a.coeffs else None  # type: ignore[assignment]
    terms: list[Expr] = []
    for n, c in a.coeffs:
        ci = int(c)
        terms.append(Var(n) if ci == 1 else e_mul(Const(ci), Var(n)))
    if not terms:
        return Const(int(a.const))
    out = terms[0]
    for t in terms[1:]:
        out = e_add(out, t)
    ci = int(a.const)
    if ci > 0:
        out = e_add(out, Const(ci))
    elif ci < 0:
        out = e_sub(out, Const(-ci))
    return out


def affine_equal(e1: Expr, e2: Expr) -> Optional[bool]:
    """Structurally-independent equality: True/False when both convert to
    affine form, None when either is not affine."""
    a1, a2 = to_affine(e1), to_affine(e2)
    if a1 is None or a2 is None:
        return None
    return a1 == a2


def affine_diff(e1: Expr, e2: Expr) -> Optional[Affine]:
    """``e1 - e2`` as an affine form, or None."""
    a1, a2 = to_affine(e1), to_affine(e2)
    if a1 is None or a2 is None:
        return None
    return a1 - a2
