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
"""

from __future__ import annotations

import math
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


_INTRINSICS: dict[str, Callable] = {
    "SQRT": math.sqrt,
    "DSQRT": math.sqrt,
    "ABS": abs,
    "DABS": abs,
    "MOD": lambda a, b: math.fmod(a, b) if isinstance(a, float) or isinstance(b, float) else a - idiv(a, b) * b,
    "DBLE": float,
    "REAL": float,
    "INT": int,
}

_CMP = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "lt": lambda a, b: a < b,
    "le": lambda a, b: a <= b,
    "gt": lambda a, b: a > b,
    "ge": lambda a, b: a >= b,
}


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


class Interpreter:
    """Executes IR over an environment dict; see module docstring."""

    def __init__(self, env: dict, tracer: Optional[Tracer] = None):
        self.env = env
        self.tracer = tracer

    # ---- expressions ----------------------------------------------------
    def eval(self, e: Expr):
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return self.env[e.name]
            except KeyError:
                raise SemanticsError(f"unbound variable {e.name}") from None
        if isinstance(e, ArrayRef):
            return self._load(e)
        if isinstance(e, BinOp):
            l, r = self.eval(e.left), self.eval(e.right)
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if e.op == "/":
                # Fortran: integer/integer is integer division.
                if isinstance(l, (int, np.integer)) and isinstance(r, (int, np.integer)):
                    return idiv(int(l), int(r))
                return l / r
            if e.op == "**":
                return l**r
            raise SemanticsError(f"bad op {e.op}")  # pragma: no cover
        if isinstance(e, IntDiv):
            return idiv(int(self.eval(e.left)), int(self.eval(e.right)))
        if isinstance(e, Min):
            return min(self.eval(a) for a in e.args)
        if isinstance(e, Max):
            return max(self.eval(a) for a in e.args)
        if isinstance(e, Call):
            fn = _INTRINSICS.get(e.name.upper())
            if fn is None:
                raise SemanticsError(f"unknown intrinsic {e.name}")
            return fn(*(self.eval(a) for a in e.args))
        if isinstance(e, Compare):
            return _CMP[e.op](self.eval(e.left), self.eval(e.right))
        if isinstance(e, LogicalOp):
            if e.op == "and":
                return all(self.eval(a) for a in e.args)
            return any(self.eval(a) for a in e.args)
        if isinstance(e, Not):
            return not self.eval(e.arg)
        raise SemanticsError(f"unknown expression {type(e).__name__}")  # pragma: no cover

    def _index(self, ref: ArrayRef) -> tuple[int, ...]:
        arr = self.env.get(ref.array)
        if arr is None:
            raise SemanticsError(f"unbound array {ref.array}")
        idx = tuple(int(self.eval(i)) for i in ref.index)
        if len(idx) != arr.ndim:
            raise SemanticsError(
                f"{ref.array}: rank mismatch ({len(idx)} subscripts, rank {arr.ndim})"
            )
        for k, (i, n) in enumerate(zip(idx, arr.shape)):
            if not (1 <= i <= n):
                raise SemanticsError(
                    f"{ref.array}: subscript {k + 1} out of bounds (value {i}, extent {n})"
                )
        return idx

    def _load(self, ref: ArrayRef):
        idx = self._index(ref)
        if self.tracer is not None:
            self.tracer.access(ref.array, idx, False)
        return self.env[ref.array][tuple(i - 1 for i in idx)]

    def _store(self, ref: ArrayRef, idx: tuple[int, ...], value) -> None:
        if self.tracer is not None:
            self.tracer.access(ref.array, idx, True)
        self.env[ref.array][tuple(i - 1 for i in idx)] = value

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
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, ArrayRef):
                idx = self._index(stmt.target)  # its loads come before the RHS's
                self._store(stmt.target, idx, self.eval(stmt.value))
            else:
                self.env[stmt.target.name] = self.eval(stmt.value)
        elif isinstance(stmt, Loop):
            lo = int(self.eval(stmt.lo))
            hi = int(self.eval(stmt.hi))
            step = int(self.eval(stmt.step))
            if step == 0:
                raise SemanticsError(f"loop {stmt.var}: zero step")
            for v in range(lo, hi + (1 if step > 0 else -1), step):
                self._iteration(stmt, v)
        elif isinstance(stmt, If):
            if self.eval(stmt.cond):
                self.run(stmt.then)
            else:
                self.run(stmt.els)
        elif isinstance(stmt, Comment):
            pass
        elif isinstance(stmt, (BlockLoop, InLoop)):
            raise SemanticsError(
                "BLOCK DO / IN DO must be lowered (repro.lang) before execution"
            )
        else:  # pragma: no cover - defensive
            raise SemanticsError(f"unknown statement {type(stmt).__name__}")


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
