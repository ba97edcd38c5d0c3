"""Canonical affine (linear) forms, exact and integer-first.

An :class:`Affine` is ``const + sum(coeffs[v] * v)``.  Subscripts and loop
bounds are integers, so every stored number is a machine ``int`` and turns
into a ``Fraction`` only where a division makes it non-integral (and back
the moment it is integral again).  Conversion from IR
expressions (:func:`to_affine`) succeeds exactly when the expression is
affine in its variables: sums, differences, products with a constant side,
and integer division by a constant that exactly divides every coefficient.
Everything the dependence tests, section algebra, and triangular-interchange
bound formulas consume goes through this form, so "is this subscript
analyzable" has one definition across the compiler.
"""

from __future__ import annotations

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


def _num(x: Rat) -> Rat:
    """The one stored form of a number: an ``int`` when integral, else a
    ``Fraction`` — never a ``Fraction`` of denominator 1, never a float."""
    if type(x) is int:
        return x
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"affine forms are exact: {x!r} is not an int or a Fraction")
    return int(x) if x.denominator == 1 else x


class Affine:
    """Immutable affine form: ``const + Σ coeffs[v]·v``.

    Canonical: names sorted, no zero coefficient, every number as
    :func:`_num` stores it — so equality and hashing are structural.
    Slotted, not a frozen dataclass, because derivations build ~10⁵ of
    them.  The hash is kept once computed but never pickled
    (:meth:`__reduce__`): string hashes differ between processes.
    """

    __slots__ = ("coeffs", "const", "_hash")

    coeffs: tuple[tuple[str, Rat], ...]
    const: Rat

    def __init__(self, coeffs: tuple[tuple[str, Rat], ...], const: Rat) -> None:
        _set_coeffs(self, coeffs)
        _set_const(self, const)
        _set_hash(self, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Affine is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Affine is immutable: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Affine:
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.coeffs, self.const))
            _set_hash(self, h)
        return h

    def __reduce__(self):
        return (Affine, (self.coeffs, self.const))

    # ---- construction ---------------------------------------------------
    @staticmethod
    def make(coeffs: Mapping[str, Rat] | None = None, const: Rat = 0) -> "Affine":
        if not coeffs:
            return Affine((), _num(const))
        return Affine(tuple([(n, _num(c)) for n, c in sorted(coeffs.items()) if c]), _num(const))

    @staticmethod
    def constant(value: Rat) -> "Affine":
        return Affine((), _num(value))

    @staticmethod
    def variable(name: str) -> "Affine":
        return Affine(((name, 1),), 0)

    # ---- inspection ------------------------------------------------------
    def coeff(self, name: str) -> Rat:
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def constant_value(self) -> Optional[Rat]:
        return self.const if self.is_constant else None

    def is_integral(self) -> bool:
        """True when all coefficients and the constant are integers."""
        return type(self.const) is int and all(type(c) is int for _, c in self.coeffs)

    # ---- arithmetic ------------------------------------------------------
    # ``type(x) is`` before the ABC ``isinstance``, and no dict-and-sort
    # when a side is constant: these run ~10⁵ times per derivation.
    def _plus(self, other: "Affine | Rat", sign: int) -> "Affine":
        """``self + sign·other``, ``sign`` being ±1."""
        if other.__class__ is Affine:
            const = self.const + sign * other.const
            if not other.coeffs:
                return Affine(self.coeffs, _num(const))
            if not self.coeffs and sign == 1:
                return Affine(other.coeffs, _num(const))
            d = dict(self.coeffs)
            for n, c in other.coeffs:
                d[n] = d.get(n, 0) + sign * c
            return Affine.make(d, const)
        if type(other) is int or isinstance(other, (int, Fraction)):
            return Affine(self.coeffs, _num(self.const + sign * other))
        return NotImplemented

    def __add__(self, other: "Affine | Rat") -> "Affine":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other: "Affine | Rat") -> "Affine":
        return self._plus(other, -1)

    def __rsub__(self, other: Rat) -> "Affine":
        return (self * -1) + other

    def __mul__(self, k: Rat) -> "Affine":
        if not k:
            return Affine((), 0)
        if k == 1 and type(k) is int:
            return self
        return Affine(tuple([(n, _num(c * k)) for n, c in self.coeffs]), _num(self.const * k))

    __rmul__ = __mul__

    def __truediv__(self, k: Rat) -> "Affine":
        """Exact division — the one place a ``Fraction`` is born (and only
        when ``k`` is not ±1; never ``c / k`` on a coefficient: a float)."""
        return self * (k if abs(k) == 1 else Fraction(1) / k)

    def __neg__(self) -> "Affine":
        return self * -1

    def substitute(self, mapping: Mapping[str, "Affine"]) -> "Affine":
        """Replace variables by affine forms."""
        d: dict[str, Rat] = {}
        const = self.const
        for n, c in self.coeffs:
            if n in mapping:
                by = mapping[n]
                const += by.const * c
                for m, e in by.coeffs:
                    d[m] = d.get(m, 0) + e * c
            else:
                d[n] = d.get(n, 0) + c
        return Affine.make(d, const)

    def eval(self, env: Mapping[str, Rat]) -> Rat:
        """Evaluate with every variable bound (KeyError otherwise)."""
        return _num(sum((c * _num(env[n]) for n, c in self.coeffs), self.const))

    def __repr__(self) -> str:
        parts = []
        for n, c in self.coeffs:
            parts.append(f"{c}*{n}" if c != 1 else n)
        if self.const != 0 or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)


# the slot descriptors' own setters: ``__setattr__`` refuses every write
_set_coeffs = Affine.coeffs.__set__
_set_const = Affine.const.__set__
_set_hash = Affine._hash.__set__


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
        if type(rc) is not int:
            return None
        q = l / rc
        return q if q.is_integral() else None
    return None


def from_affine(a: Affine) -> Expr:
    """Rebuild a tidy IR expression from an affine form.

    Requires integral coefficients (loop bounds and subscripts are
    integers); raises ValueError otherwise.
    """
    if not a.is_integral():
        raise ValueError(f"cannot render non-integral affine form {a!r}")
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
