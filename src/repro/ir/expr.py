"""Expression nodes for the loop-nest IR.

Expressions are immutable (frozen dataclasses) so they can be shared freely
between the original and transformed programs, hashed into dependence-graph
keys, and compared structurally with ``==``.

Arithmetic follows Fortran conventions where it matters:

- ``IntDiv`` truncates toward zero (Fortran integer division).  The
  triangular-interchange bound formula ``(J - beta) / alpha`` from Section
  3.1 of the paper relies on this operator with positive operands, where
  truncation and floor agree.
- ``Min``/``Max`` are n-ary, mirroring Fortran's ``MIN``/``MAX`` intrinsics
  that appear in blocked loop bounds.

Smart constructors (:func:`add`, :func:`sub`, :func:`mul`, :func:`smin`,
:func:`smax`) perform light constant folding so that generated bounds like
``I + 16 - 1`` print as ``I + 15``.  Deeper simplification lives in
:mod:`repro.symbolic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

Number = Union[int, float]


class Expr:
    """Base class for all expression nodes.

    Operator overloads build IR trees: ``Var("I") + 1`` is
    ``BinOp('+', Var('I'), Const(1))``.  Comparisons build :class:`Compare`
    nodes (so ``==`` keeps its structural-equality meaning; use ``eq_``
    for an IR-level equality test).
    """

    __slots__ = ()

    def __add__(self, other: "ExprLike") -> "Expr":
        return add(self, as_expr(other))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return add(as_expr(other), self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return sub(self, as_expr(other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return sub(as_expr(other), self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return mul(self, as_expr(other))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return mul(as_expr(other), self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return BinOp("/", self, as_expr(other))

    def __neg__(self) -> "Expr":
        return mul(Const(-1), self)

    # Named comparison builders (Python's rich comparisons are reserved for
    # structural equality / ordering of the dataclasses themselves).
    def lt(self, other: "ExprLike") -> "Compare":
        return Compare("lt", self, as_expr(other))

    def le(self, other: "ExprLike") -> "Compare":
        return Compare("le", self, as_expr(other))

    def gt(self, other: "ExprLike") -> "Compare":
        return Compare("gt", self, as_expr(other))

    def ge(self, other: "ExprLike") -> "Compare":
        return Compare("ge", self, as_expr(other))

    def eq_(self, other: "ExprLike") -> "Compare":
        return Compare("eq", self, as_expr(other))

    def ne_(self, other: "ExprLike") -> "Compare":
        return Compare("ne", self, as_expr(other))


ExprLike = Union[Expr, int, float, str]


@dataclass(frozen=True, eq=False)
class Const(Expr):
    """Integer or floating literal. ``Const(0)`` and ``Const(0.0)`` differ:
    equality and hash are strict about integer-vs-float (Python's own
    ``0 == 0.0`` would let an ``Expr``-keyed table hand a float literal
    the integer's answer)."""

    value: Number

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Const:
            return NotImplemented
        a, b = self.value, other.value
        return a == b and isinstance(a, float) == isinstance(b, float)

    def __hash__(self) -> int:
        return hash((isinstance(self.value, float), self.value))

    def __repr__(self) -> str:  # compact debugging output
        return f"Const({self.value!r})"


@dataclass(frozen=True, eq=True)
class Var(Expr):
    """Scalar variable or loop induction variable, by name.

    Names are case-insensitive in the Fortran front end and normalized to
    upper case there; the IR itself treats names as opaque exact strings.
    """

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True, eq=True)
class BinOp(Expr):
    """Binary arithmetic: op in {'+', '-', '*', '/', '**'}.

    ``'/'`` is real division.  Integer (truncating) division is the separate
    :class:`IntDiv` node so analyses never mistake one for the other.
    """

    op: str
    left: Expr
    right: Expr

    OPS = ("+", "-", "*", "/", "**")

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise ValueError(f"bad BinOp op {self.op!r}")


@dataclass(frozen=True, eq=True)
class IntDiv(Expr):
    """Fortran integer division: truncate toward zero."""

    left: Expr
    right: Expr


@dataclass(frozen=True, eq=True)
class Min(Expr):
    """n-ary MIN intrinsic."""

    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ValueError("Min needs at least two arguments")


@dataclass(frozen=True, eq=True)
class Max(Expr):
    """n-ary MAX intrinsic."""

    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if len(self.args) < 2:
            raise ValueError("Max needs at least two arguments")


@dataclass(frozen=True, eq=True)
class Call(Expr):
    """Intrinsic function call (SQRT, DSQRT, ABS, MOD, ...)."""

    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True, eq=True)
class ArrayRef(Expr):
    """Subscripted array reference ``A(e1, ..., ek)``.

    Used both as a load (when it appears in an expression) and as a store
    target (when it is the LHS of an :class:`~repro.ir.stmt.Assign`).
    Subscripts are 1-based per Fortran; rank is ``len(index)``.
    """

    array: str
    index: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if not self.index:
            raise ValueError("ArrayRef needs at least one subscript")

    @property
    def rank(self) -> int:
        return len(self.index)

    def __repr__(self) -> str:
        return f"ArrayRef({self.array!r}, {list(self.index)!r})"


@dataclass(frozen=True, eq=True)
class Compare(Expr):
    """Relational operator: op in {'eq','ne','lt','le','gt','ge'}."""

    op: str
    left: Expr
    right: Expr

    OPS = ("eq", "ne", "lt", "le", "gt", "ge")
    NEGATION = {"eq": "ne", "ne": "eq", "lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}

    def __post_init__(self) -> None:
        if self.op not in self.OPS:
            raise ValueError(f"bad Compare op {self.op!r}")

    def negate(self) -> "Compare":
        return Compare(self.NEGATION[self.op], self.left, self.right)


@dataclass(frozen=True, eq=True)
class LogicalOp(Expr):
    """n-ary .AND. / .OR. over boolean expressions."""

    op: str  # 'and' | 'or'
    args: tuple[Expr, ...]

    def __post_init__(self) -> None:
        if self.op not in ("and", "or"):
            raise ValueError(f"bad LogicalOp op {self.op!r}")
        if len(self.args) < 2:
            raise ValueError("LogicalOp needs at least two arguments")


@dataclass(frozen=True, eq=True)
class Not(Expr):
    """Boolean negation (.NOT.)."""

    arg: Expr


ZERO = Const(0)
ONE = Const(1)


def as_expr(x: ExprLike) -> Expr:
    """Coerce Python ints/floats/strings into IR expressions.

    Strings become :class:`Var` nodes — convenient in the builder DSL:
    ``ref('A', 'I', 'J')``.
    """
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not IR values; use Compare/LogicalOp")
    if isinstance(x, (int, float)):
        return Const(x)
    if isinstance(x, str):
        return Var(x)
    raise TypeError(f"cannot convert {type(x).__name__} to Expr")


def _const_val(e: Expr) -> Number | None:
    return e.value if isinstance(e, Const) else None


def add(a: ExprLike, b: ExprLike) -> Expr:
    """``a + b`` with constant folding and additive-identity removal."""
    a, b = as_expr(a), as_expr(b)
    av, bv = _const_val(a), _const_val(b)
    if av is not None and bv is not None:
        return Const(av + bv)
    if av == 0:
        return b
    if bv == 0:
        return a
    # Fold (x + c1) + c2 -> x + (c1+c2) so bound arithmetic stays tidy.
    if bv is not None and isinstance(a, BinOp) and a.op in ("+", "-"):
        rv = _const_val(a.right)
        if rv is not None:
            c = (rv if a.op == "+" else -rv) + bv
            return add(a.left, Const(c))
    return BinOp("+", a, b)


def sub(a: ExprLike, b: ExprLike) -> Expr:
    """``a - b`` with constant folding."""
    a, b = as_expr(a), as_expr(b)
    av, bv = _const_val(a), _const_val(b)
    if av is not None and bv is not None:
        return Const(av - bv)
    if bv == 0:
        return a
    if a == b:
        return ZERO
    if bv is not None:
        return add(a, Const(-bv))
    return BinOp("-", a, b)


def mul(a: ExprLike, b: ExprLike) -> Expr:
    """``a * b`` with constant folding and multiplicative-identity removal."""
    a, b = as_expr(a), as_expr(b)
    av, bv = _const_val(a), _const_val(b)
    if av is not None and bv is not None:
        return Const(av * bv)
    if av == 1:
        return b
    if bv == 1:
        return a
    if av == 0 or bv == 0:
        # Integer zero only; 0.0 * x must be preserved for IEEE honesty,
        # but loop-bound arithmetic (our use) is integral.
        if av == 0 and isinstance(a, Const) and isinstance(a.value, int):
            return ZERO
        if bv == 0 and isinstance(b, Const) and isinstance(b.value, int):
            return ZERO
    return BinOp("*", a, b)


def smin(*args: ExprLike) -> Expr:
    """n-ary MIN with duplicate removal and constant combining.

    Returns the single argument unwrapped when everything collapses.
    """
    return _fold_minmax(args, is_min=True)


def smax(*args: ExprLike) -> Expr:
    """n-ary MAX with duplicate removal and constant combining."""
    return _fold_minmax(args, is_min=False)


def _fold_minmax(args: Iterable[ExprLike], is_min: bool) -> Expr:
    flat: list[Expr] = []
    const: Number | None = None
    node_t = Min if is_min else Max
    pick = min if is_min else max
    for raw in args:
        e = as_expr(raw)
        # Flatten nested MIN(MIN(a,b),c).
        inner = e.args if isinstance(e, node_t) else (e,)
        for sub_e in inner:
            v = _const_val(sub_e)
            if v is not None:
                const = v if const is None else pick(const, v)
            elif sub_e not in flat:
                flat.append(sub_e)
    if const is not None:
        flat.append(Const(const))
    if not flat:
        raise ValueError("min/max of nothing")
    if len(flat) == 1:
        return flat[0]
    return node_t(tuple(flat))


def free_vars(e: Expr) -> frozenset[str]:
    """All Var names occurring in ``e`` (array names excluded; their
    subscript variables included)."""
    out: set[str] = set()
    _free_vars(e, out)
    return frozenset(out)


def _free_vars(e: Expr, out: set[str]) -> None:
    if isinstance(e, Var):
        out.add(e.name)
    elif isinstance(e, Const):
        pass
    elif isinstance(e, (BinOp, IntDiv, Compare)):
        _free_vars(e.left, out)
        _free_vars(e.right, out)
    elif isinstance(e, (Min, Max, Call, LogicalOp)):
        for a in e.args:
            _free_vars(a, out)
    elif isinstance(e, Not):
        _free_vars(e.arg, out)
    elif isinstance(e, ArrayRef):
        for a in e.index:
            _free_vars(a, out)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown Expr node {type(e).__name__}")
