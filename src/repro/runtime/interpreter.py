"""Tree-walking reference interpreter for the loop IR.

Semantics (Fortran):

- subscripts are 1-based; arrays are numpy arrays allocated with
  ``order='F'`` so the memory-trace addresses match a Fortran compiler's;
- ``DO V = lo, hi, step`` evaluates its bounds once at entry; zero-trip
  loops are legal and common in blocked code (``DO J = K+KS, N``);
- integer division truncates toward zero;
- scalar temporaries (TAU, DEN, C, S, ...) live in the environment and are
  not traced — they model registers, which is exactly the premise of the
  paper's scalar replacement.

A :class:`Tracer` (any object with ``access(array, index, is_write)``)
observes every array element touch in program order: an array store
evaluates the loads in its target's subscripts, then its right-hand side,
then stores.  This is the order the compiled flavours
(:mod:`repro.runtime.codegen`) are checked against.

Execution compiles as it goes.  The first time an :class:`Interpreter`
evaluates an expression it turns the tree into nested closures, one per
node, from the same per-node cases a tree walk would take; an
``ArrayRef``'s subscripts and bounds checks become one more closure.  Both
tables are keyed by ``id(node)`` and hold the node, so no id is reused
while the interpreter lives, and they die with it: nothing is kept across
runs.  Statements dispatch on ``type(stmt)``.  Every array load (from
inside any closure) goes through ``_load`` and every store through
``_store``, and both hand the access to the tracer.  A subclass observes
statements and trips through the ``_stmt`` and ``_iteration`` hooks:
:class:`repro.par.sanitizer.RaceSanitizer` overrides only those two and is
its own tracer, so it sees every access without a copy of ``_load`` or
``_store``.

Values are whatever the arrays hold — numpy scalars with their own
rounding (``float32`` after each operation) and IEEE division by zero, or
any Python objects on ``dtype=object`` arrays.  There is deliberately no
Python-float fast path and nothing shared with codegen's helpers: this
interpreter defines the semantics codegen is checked against.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SemanticsError
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    IntDiv,
    LogicalOp,
    Max,
    Min,
    Not,
    Var,
)
from repro.ir.stmt import Assign, BlockLoop, Comment, If, InLoop, Loop, Procedure, Stmt


class Tracer(Protocol):
    """Observer of the element-level memory trace."""

    def access(self, array: str, index: tuple[int, ...], is_write: bool) -> None:
        """Called once per array-element load/store, in program order."""
        ...


def idiv(a: int, b: int) -> int:
    """Fortran integer division: truncate toward zero."""
    if b == 0:
        raise SemanticsError("integer division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def sqrt(x):
    """SQRT/DSQRT: IEEE's NaN for a negative, where ``math.sqrt`` raises."""
    if x < 0:
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.float64(x))
    return math.sqrt(x)


def mod(a, b):
    """MOD: truncating for two integers, else IEEE's ``fmod``, whose NaN for
    a zero divisor or an infinite dividend ``math.fmod`` raises on."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) - idiv(int(a), int(b)) * int(b)
    try:
        return math.fmod(a, b)
    except ValueError:
        with np.errstate(invalid="ignore"):
            return np.fmod(np.float64(a), b)


def to_int(x):
    """INT: truncation toward zero; NaN and the infinities have none."""
    try:
        return int(x)
    except (ValueError, OverflowError):
        raise SemanticsError(f"INT of {float(x)}: no integer value") from None


_INTRINSICS: dict[str, Callable] = {
    "SQRT": sqrt,
    "DSQRT": sqrt,
    "ABS": abs,
    "DABS": abs,
    "MOD": mod,
    "DBLE": float,
    "REAL": float,
    "INT": to_int,
}

_CMP = {
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}
_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "**": operator.pow}

_INTEGERS = (int, np.integer)


def make_env(
    proc: Procedure,
    sizes: Mapping[str, int],
    arrays: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
) -> dict:
    """Build an environment for ``proc``: parameters from ``sizes``, arrays
    either taken from ``arrays`` (copied, converted to Fortran order) or
    filled with reproducible random data.

    Declared dimensions are evaluated against ``sizes``; mismatched
    user-supplied shapes raise :class:`SemanticsError`.
    """
    env: dict = {}
    for p in proc.params:
        if p not in sizes:
            raise SemanticsError(f"missing value for parameter {p}")
        v = sizes[p]
        env[p] = float(v) if isinstance(v, float) else int(v)
    rng = np.random.default_rng(seed)
    interp = Interpreter(env)
    for decl in proc.arrays:
        shape = tuple(int(interp.eval(d)) for d in decl.dims)
        if arrays is not None and decl.name in arrays:
            src = np.asarray(arrays[decl.name])
            if src.shape != shape:
                raise SemanticsError(
                    f"array {decl.name}: supplied shape {src.shape} != declared {shape}"
                )
            env[decl.name] = np.array(src, dtype=np.dtype(decl.dtype), order="F")
        elif decl.dtype.startswith("f"):
            env[decl.name] = np.asfortranarray(
                rng.uniform(0.1, 1.0, size=shape).astype(np.dtype(decl.dtype))
            )
        else:
            env[decl.name] = np.zeros(shape, dtype=np.dtype(decl.dtype), order="F")
    return env


def _raise(message: str) -> Callable:
    def fault():
        raise SemanticsError(message)

    return fault


def _compile(interp: "Interpreter", e: Expr) -> Callable:
    """``e`` as a zero-argument closure over ``interp``, case by case as a
    tree walk would evaluate it.  Never raises: a fault becomes a closure
    that raises when, and only when, the walk would have."""
    sub = interp._closure
    if isinstance(e, Const):
        value = e.value
        return lambda: value
    if isinstance(e, Var):
        env, name = interp.env, e.name

        def var():
            try:
                return env[name]
            except KeyError:
                raise SemanticsError(f"unbound variable {name}") from None

        return var
    if isinstance(e, ArrayRef):
        load = interp._load
        return lambda: load(e)
    if isinstance(e, BinOp):
        l, r = sub(e.left), sub(e.right)
        if e.op != "/":
            op = _ARITH[e.op]
            return lambda: op(l(), r())

        def div():
            a, b = l(), r()
            # Fortran: integer/integer is integer division.
            if isinstance(a, _INTEGERS) and isinstance(b, _INTEGERS):
                return idiv(int(a), int(b))
            return a / b

        return div
    if isinstance(e, IntDiv):
        l, r = sub(e.left), sub(e.right)
        return lambda: idiv(int(l()), int(r()))
    if isinstance(e, Call):
        fn = _INTRINSICS.get(e.name.upper())
        if fn is None:
            return _raise(f"unknown intrinsic {e.name}")
        args = tuple(sub(a) for a in e.args)
        return lambda: fn(*[f() for f in args])
    if isinstance(e, Compare):
        l, r, cmp = sub(e.left), sub(e.right), _CMP[e.op]
        return lambda: cmp(l(), r())
    if isinstance(e, Not):
        a = sub(e.arg)
        return lambda: not a()
    if isinstance(e, (Min, Max, LogicalOp)):
        fn = min if isinstance(e, Min) else max if isinstance(e, Max) else (
            all if e.op == "and" else any)
        args = tuple(sub(a) for a in e.args)
        return lambda: fn(f() for f in args)
    return _raise(f"unknown expression {type(e).__name__}")  # pragma: no cover


def _checked(name: str, idx: tuple[int, ...], shape: tuple[int, ...]) -> tuple[int, ...]:
    if len(idx) != len(shape):
        raise SemanticsError(
            f"{name}: rank mismatch ({len(idx)} subscripts, rank {len(shape)})"
        )
    for k, (i, n) in enumerate(zip(idx, shape)):
        if not (1 <= i <= n):
            raise SemanticsError(
                f"{name}: subscript {k + 1} out of bounds (value {i}, extent {n})"
            )
    return idx


def _indexer(interp: "Interpreter", ref: ArrayRef) -> Callable[[], tuple[int, ...]]:
    """``ref``'s checked 1-based index: unbound array, then each subscript
    in order, then rank, then bounds."""
    env, name = interp.env, ref.array
    subs = tuple(interp._closure(i) for i in ref.index)
    if len(subs) == 1:  # ranks 1 and 2: checked without a loop
        (s0,) = subs

        def index():
            arr = env.get(name)
            if arr is None:
                raise SemanticsError(f"unbound array {name}")
            i = int(s0())
            shape = arr.shape
            if len(shape) == 1 and 1 <= i <= shape[0]:
                return (i,)
            return _checked(name, (i,), shape)

    elif len(subs) == 2:
        s0, s1 = subs

        def index():
            arr = env.get(name)
            if arr is None:
                raise SemanticsError(f"unbound array {name}")
            i, j = int(s0()), int(s1())
            shape = arr.shape
            if len(shape) == 2 and 1 <= i <= shape[0] and 1 <= j <= shape[1]:
                return (i, j)
            return _checked(name, (i, j), shape)

    else:

        def index():
            arr = env.get(name)
            if arr is None:
                raise SemanticsError(f"unbound array {name}")
            return _checked(name, tuple([int(f()) for f in subs]), arr.shape)

    return index


def _zero_based(idx: tuple[int, ...]) -> tuple[int, ...]:
    if len(idx) == 2:
        i, j = idx
        return (i - 1, j - 1)
    if len(idx) == 1:
        return (idx[0] - 1,)
    return tuple([i - 1 for i in idx])


def _assign(interp: "Interpreter", stmt: Assign) -> None:
    target = stmt.target
    if isinstance(target, ArrayRef):
        idx = interp._index(target)  # its loads come before the RHS's
        interp._store(target, idx, interp.eval(stmt.value))
    else:
        interp.env[target.name] = interp.eval(stmt.value)


def _loop(interp: "Interpreter", stmt: Loop) -> None:
    lo = int(interp.eval(stmt.lo))
    hi = int(interp.eval(stmt.hi))
    step = int(interp.eval(stmt.step))
    if step == 0:
        raise SemanticsError(f"loop {stmt.var}: zero step")
    iteration = interp._iteration
    for v in range(lo, hi + (1 if step > 0 else -1), step):
        iteration(stmt, v)


def _if(interp: "Interpreter", stmt: If) -> None:
    interp.run(stmt.then if interp.eval(stmt.cond) else stmt.els)


def _unlowered(interp: "Interpreter", stmt: Stmt) -> None:
    raise SemanticsError("BLOCK DO / IN DO must be lowered (repro.lang) before execution")


def _unknown_stmt(interp: "Interpreter", stmt: Stmt) -> None:  # pragma: no cover
    raise SemanticsError(f"unknown statement {type(stmt).__name__}")


_HANDLERS: dict[type, Callable] = {
    Assign: _assign, Loop: _loop, If: _if, Comment: lambda interp, stmt: None,
    BlockLoop: _unlowered, InLoop: _unlowered,
}


class Interpreter:
    """Executes IR over an environment dict; see module docstring.  The
    closures read the ``env`` dict the interpreter was built with."""

    def __init__(self, env: dict, tracer: Optional[Tracer] = None):
        self.env = env
        self.tracer = tracer
        # id(node) -> (node, closure): holding the node keeps its id from
        # being handed to another node while this interpreter lives
        self._closures: dict[int, tuple[Expr, Callable]] = {}
        self._indexers: dict[int, tuple[ArrayRef, Callable]] = {}

    # ---- expressions ----------------------------------------------------
    def _closure(self, e: Expr) -> Callable:
        entry = self._closures.get(id(e))
        if entry is None:
            entry = self._closures[id(e)] = (e, _compile(self, e))
        return entry[1]

    def eval(self, e: Expr):
        entry = self._closures.get(id(e))
        return (entry[1] if entry is not None else self._closure(e))()

    def _index(self, ref: ArrayRef) -> tuple[int, ...]:
        entry = self._indexers.get(id(ref))
        if entry is None:
            entry = self._indexers[id(ref)] = (ref, _indexer(self, ref))
        return entry[1]()

    def _load(self, ref: ArrayRef):
        idx = self._index(ref)
        if self.tracer is not None:
            self.tracer.access(ref.array, idx, False)
        return self.env[ref.array][_zero_based(idx)]

    def _store(self, ref: ArrayRef, idx: tuple[int, ...], value) -> None:
        if self.tracer is not None:
            self.tracer.access(ref.array, idx, True)
        self.env[ref.array][_zero_based(idx)] = value

    # ---- statements ------------------------------------------------------
    def run(self, body: Sequence[Stmt] | Stmt) -> None:
        if isinstance(body, Stmt):
            body = (body,)
        for stmt in body:
            self._stmt(stmt)

    def _iteration(self, loop: Loop, v: int) -> None:
        """One trip of ``loop`` at ``v`` (the hook observers override)."""
        self.env[loop.var] = v
        self.run(loop.body)

    def _stmt(self, stmt: Stmt) -> None:
        handler = _HANDLERS.get(type(stmt)) or next(  # a subclass runs as its base
            (_HANDLERS[b] for b in type(stmt).__mro__ if b in _HANDLERS), _unknown_stmt)
        handler(self, stmt)


def execute(
    proc: Procedure,
    sizes: Mapping[str, int],
    arrays: Optional[Mapping[str, np.ndarray]] = None,
    tracer: Optional[Tracer] = None,
    seed: int = 0,
) -> dict:
    """Run a whole procedure; returns the final environment (arrays are the
    procedure's outputs)."""
    from repro.obs import core as _obs

    env = make_env(proc, sizes, arrays, seed=seed)
    with _obs.span(f"interpret:{proc.name}", cat="runtime"):
        Interpreter(env, tracer).run(proc.body)
    return env
