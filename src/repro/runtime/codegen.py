"""Compile loop IR to Python functions.

The generated code transliterates the Fortran semantics — 1-based subscripts
become 0-based indexing, ``DO`` becomes ``range`` (bounds evaluated once,
zero-trip legal), integer division truncates toward zero — in three flavours
that share one statement lowering and differ in how a load/store is emitted:

- **plain**: direct element indexing (``float64`` elements through a
  memoryview, :func:`_elements`), used for wall-clock timing;
- **traced**: every load/store is routed through ``_ld``/``_st`` callbacks
  so a :class:`Tracer` can observe the exact element-touch sequence the
  equivalent Fortran program would issue;
- **stream** (:func:`compile_stream`): the same sequence as byte addresses
  in a buffer that is handed to a consumer in chunks — what the cache
  simulator runs on.

Stream encoding (private; consumers get decoded arrays).  Every ``ArrayRef``
occurrence is a numbered static *site*, and one event is one ``int64``:
``site << shift | 2*address | is_write``, with ``shift`` just wide enough for
the layout's last byte (events of the sizes simulated here stay below
``2**30``, where CPython's integer arithmetic is fastest).  The kernel gets,
per array, the doubled strides of the layout's affine address map and, per
site, the doubled offset of its array with the site number in the high bits,
so a load at site 3 is ``(_ap(_o3 + I*_s_A_0 + J*_s_A_1) or A[I - 1, J - 1])``:
``array('q').append`` returns ``None``, so the event is recorded and the
element is the expression's value, and Python's left-to-right evaluation and
``and``/``or`` short-circuiting order the events exactly as they order the
traced flavour's ``_ld`` calls, in loop bounds and guards too.  A store
evaluates the loads in its target's subscripts, then the right-hand side,
then records its event ``+ 1`` and assigns: the order in which ``_st(name,
(subscripts,), rhs)`` evaluates its arguments.  The source depends on the
procedure only, not on sizes or layout.

Block form.  An innermost ``DO`` whose body is assignments only (no ``IF``,
no ``AND``/``OR`` over a load, which could skip it) and whose every
subscript is ``c + var*d``, ``c`` and ``d`` fixed while it runs
(:func:`_coefficient`), touches elements that depend on no array value:
iteration ``k`` issues, per site ``j`` in order, ``event_j(first) +
k*step*d_j``.  Once its range is evaluated (loads in the bounds are
per-touch events and come first), its ``trips × sites`` events are appended
as one block, ``[k, 1] @ [steps, firsts]`` in one numpy call.  Then the body
runs once over all iterations as array statements when no element one
iteration writes is touched by another — :meth:`_Arrays.lower` decides what
the IR can, :func:`_disjoint` the rest on the block's ``(first, step)``
addresses — and as the plain scalar loop otherwise.  Every other loop keeps
the per-touch form: a guard in the body (givens' ``J`` loop, the guarded
matmul's ``K`` loop), a subscript that is loaded (``A(IP(K))``) or assigned
in the body, a loop that is not innermost.  There is no switch.

The interpreter (:mod:`repro.runtime.interpreter`) defines the semantics;
the test suite cross-checks the engines statement-for-statement on every
algorithm in the repository.
"""

from __future__ import annotations

import math
from array import array
from itertools import count
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import MachineError, SemanticsError
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
    ONE,
    Var,
    ZERO,
    add,
    free_vars,
    mul,
    sub,
)
from repro.ir.stmt import Assign, BlockLoop, Comment, If, InLoop, Loop, Procedure, Stmt
from repro.ir.visit import array_refs, find_loops, walk_exprs
from repro.runtime.interpreter import Tracer, idiv, make_env

_PY_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_INTRINSIC_NAMES = {
    "SQRT": "_sqrt",
    "DSQRT": "_sqrt",
    "ABS": "abs",
    "DABS": "abs",
    "DBLE": "float",
    "REAL": "float",
    "INT": "int",
    "MOD": "_mod",
}


def _div(a, b):
    """Fortran '/': integer division when both operands are integers, else
    IEEE's quotient, numpy's where a Python float's division by zero raises."""
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return idiv(int(a), int(b))
    try:
        return a / b
    except ZeroDivisionError:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.float64(a) / b


def _pow(a, b):
    """Fortran '**', IEEE's where a float is involved: numpy's overflow to
    ``inf`` and ``nan`` where Python's float power raises or turns complex."""
    try:
        power = a**b
        if not isinstance(power, complex):
            return power
    except (OverflowError, ZeroDivisionError):
        if not (isinstance(a, float) or isinstance(b, float)):
            raise
    with np.errstate(all="ignore"):
        return np.float64(a) ** b


def _mod(a, b):
    if isinstance(a, (int, np.integer)) and isinstance(b, (int, np.integer)):
        return int(a) - idiv(int(a), int(b)) * int(b)
    return math.fmod(a, b)


CHUNK = 8192
"""Events a stream kernel buffers before it hands them to the consumer.
Checked at the end of every non-innermost loop body, so a buffer overshoots
by at most one innermost loop nest.  A constant, not a knob: every count is
independent of it (the consumer is exact for any split of the stream), host
time is flat from 4 Ki to 16 Ki, and beyond that a larger buffer only adds
resident memory (DESIGN.md §4 has the measurements)."""

Site = tuple[tuple[str, ...], Stmt, str]
"""Where an ``ArrayRef`` occurrence sits: the enclosing loop variables
(outer to inner), the statement it belongs to (a ``Loop`` for a load in its
bounds, an ``If`` for one in its condition), and the array."""


class _Plain:
    """Direct numpy element indexing.  ``gen`` lowers a subscript expression."""

    kernel_args: tuple[str, ...] = ()
    flush: Optional[str] = None  # statement closing a non-innermost loop body
    at: tuple[tuple[str, ...], Optional[Stmt]] = ((), None)
    """Loop path and statement whose expressions are being lowered; set by
    :func:`_gen_body`, read by the stream flavour only."""

    @staticmethod
    def element(array: str, subs: Sequence[str]) -> str:
        return f"{array}[{', '.join(f'{i} - 1' for i in subs)}]"

    def load(self, ref: ArrayRef, gen: Callable[[Expr], str]) -> str:
        return self.element(ref.array, [gen(i) for i in ref.index])

    def store(self, ref: ArrayRef, gen: Callable[[Expr], str], rhs: Expr) -> list[str]:
        return [f"{self.load(ref, gen)} = {gen(rhs)}"]

    def loop(self, stmt: Loop, rng: str, lower_body: Callable[[], list[str]]) -> list[str]:
        """The lines that run ``stmt`` over ``rng``; ``lower_body()`` lowers
        the body (once) and returns its lines, indented from column 0."""
        return [f"for {stmt.var} in {rng}:"] + _indent(lower_body())


def _indent(lines: list[str], levels: int = 1) -> list[str]:
    return ["    " * levels + l for l in lines]


class _Callbacks(_Plain):
    """Every touch is a call: ``_ld(name, index)`` / ``_st(name, index, value)``."""

    kernel_args = ("_ld", "_st")

    def load(self, ref, gen):
        return f"_ld('{ref.array}', ({', '.join(gen(i) for i in ref.index)},))"

    def store(self, ref, gen, rhs):
        idx = ", ".join(gen(i) for i in ref.index)
        return [f"_st('{ref.array}', ({idx},), {gen(rhs)})"]


def _coefficient(e: Expr, var: str, varying: frozenset[str]) -> Optional[Expr]:
    """``d`` such that ``e == c + var*d`` where neither ``c`` nor ``d``
    changes while a loop over ``var`` runs whose body assigns the scalars
    ``varying``; ``None`` when ``e`` has no such form: it loads an array,
    divides, takes a ``MIN``/``MAX``/``MOD``, is quadratic in ``var`` or
    reads a ``varying`` name."""
    if isinstance(e, Const):
        return None if isinstance(e.value, float) else ZERO
    if isinstance(e, Var):
        if e.name == var:
            return ONE
        return None if e.name in varying else ZERO
    if isinstance(e, BinOp) and e.op in ("+", "-", "*"):
        l, r = _coefficient(e.left, var, varying), _coefficient(e.right, var, varying)
        if l is None or r is None:
            return None
        if e.op == "+":
            return add(l, r)
        if e.op == "-":
            return sub(l, r)
        if l == ZERO:  # the left factor is one value throughout
            return mul(e.left, r)
        if r == ZERO:
            return mul(l, e.right)
    return None


class _Block(NamedTuple):
    """An innermost loop that is being lowered as one block of events."""

    coefficients: dict[ArrayRef, list[Expr]]
    """Per reference in the body, the :func:`_coefficient` of each subscript."""
    events: list[tuple[str, str, str, bool]]
    """Per site of the body, in the order lowered: its event in the iteration
    at hand, what one more of the loop variable adds, its array, if a store."""


def _elementwise(e: Expr, var: str, unset: set[str]) -> bool:
    """Whether ``e`` computes, for all iterations of a loop over ``var`` at
    once, what it computes in each: it is built from constants, names,
    elements and ``+ - * /``, reads ``var`` only in subscripts (meanwhile
    ``var`` holds its first value) and reads no scalar of ``unset``, which
    the body assigns later (the value it reads is the previous
    iteration's)."""
    if isinstance(e, Var):
        return e.name != var and e.name not in unset
    if isinstance(e, BinOp):
        operands = (e.left, e.right)
        return e.op in ("+", "-", "*", "/") and all(_elementwise(x, var, unset) for x in operands)
    return isinstance(e, (Const, ArrayRef))


def _disjoint(trips: int, steps: Sequence[int], firsts: Sequence[int],
              pairs: Sequence[tuple[int, int]], address_bits: int) -> bool:
    """Whether no iteration of a block touches an element that another
    writes.  Site ``n`` touches the event ``firsts[n] + k*steps[n]`` in
    iteration ``k`` below ``trips``; each pair is a store and a site on its
    array, the store itself included.  Exact, by one divisibility test, when
    the pair's steps are equal or one is zero; other steps count as a
    conflict."""
    if trips < 2:
        return True
    for s, t in pairs:
        gap = ((firsts[t] & address_bits) >> 1) - ((firsts[s] & address_bits) >> 1)
        step, other = steps[s] >> 1, steps[t] >> 1
        if step == other:  # (k - k') * step == gap
            touches = gap == 0 if step == 0 else gap % step == 0 and 0 < abs(gap // step) < trips
        elif step == 0 or other == 0:
            # the moving site is on the fixed one's element in iteration
            # gap / moving, and every other iteration touches the fixed one
            moving, gap = (step, gap) if other == 0 else (other, -gap)
            touches = gap % moving == 0 and 0 <= gap // moving < trips
        else:
            touches = True
        if touches:
            return False
    return True


def _span(start: int, step: int, trips: int):
    """The 0-based subscripts ``start + k*step``, ``k`` below ``trips``, as
    a basic slice (a zero step: the one index repeated)."""
    if step == 0:
        return [start] * trips
    stop = start + trips * step
    return slice(start, stop if stop >= 0 else None, step)


class _Arrays:
    """A block's body as array statements, run once for all its iterations.
    The loop variable holds its first value meanwhile, and a subscript that
    moves with it is a slice over every iteration's element (:func:`_span`).
    An array is the ndarray ``_n_<name>``: element by element, ``<name>``
    may be a memoryview."""

    def __init__(self, loop: Loop, coefficients: dict[ArrayRef, list[Expr]]):
        self.loop, self.coefficients = loop, coefficients
        self.spans: dict[str, str] = {}  # "start, step" -> the slice's name

    def load(self, ref, gen):
        subs = []
        for i, d in zip(ref.index, self.coefficients[ref]):
            if self.loop.var in free_vars(i):
                step = gen(d) if self.loop.step == ONE else f"{gen(d)}*_r.step"
                subs.append(self.spans.setdefault(f"{gen(i)} - 1, {step}", f"_i{len(self.spans)}"))
            else:
                subs.append(f"{gen(i)} - 1")
        return f"_n_{ref.array}[{', '.join(subs)}]"

    def lower(self, dtypes: Mapping[str, str]) -> Optional[list[str]]:
        """The statements, then the loop's final scalars; ``None`` where the
        IR rules them out: an array that is not floating point (an integer
        vector would divide without truncating), a reference with two
        subscripts that move (a diagonal is no slice), a store to one element
        throughout (an output dependence), a value that is not
        :func:`_elementwise`.  A slice is a view, so a scalar assigned one
        gets a copy, private as in the loop."""
        var = self.loop.var
        for ref in self.coefficients:
            moving = sum(var in free_vars(i) for i in ref.index)
            if not dtypes[ref.array].startswith("f") or moving > 1:
                return None
        body = [s for s in self.loop.body if isinstance(s, Assign)]
        scalars = list(dict.fromkeys(s.target.name for s in body if isinstance(s.target, Var)))
        unset, gen, lines = set(scalars), _ExprGen(self).gen, []
        for s in body:
            if not _elementwise(s.value, var, unset):
                return None
            if isinstance(s.target, ArrayRef):
                if all(d == ZERO for d in self.coefficients[s.target]):
                    return None
                lines.append(f"{self.load(s.target, gen)} = {gen(s.value)}")
                continue
            view = isinstance(s.value, ArrayRef) and var in free_vars(s.value)
            lines.append(f"{s.target.name} = {gen(s.value)}{'.copy()' if view else ''}")
            unset.discard(s.target.name)
        spans = [f"{name} = _span({key}, len(_r))" for key, name in self.spans.items()]
        last = [f"{v} = {v}[-1] if isinstance({v}, np.ndarray) else {v}" for v in scalars]
        return spans + lines + [f"{var} = _r[-1]"] + last


class _Stream(_Plain):
    """Every touch appends its event to ``_buf`` in-line, or a whole
    innermost loop appends its events as one block (the module docstring has
    the encoding, the ordering argument and the rule for a block).
    ``sites`` lists the touches in the order they were lowered, which within
    a statement is the order they execute in.

    A subscript is pasted twice, into the event and into the element access.
    One that itself loads an array is therefore bound to a temporary where
    it is first evaluated, so that its load is recorded exactly once."""

    flush = f"if len(_buf) > {CHUNK}: _flush()"

    def __init__(self, proc: Procedure):
        self._strides = tuple(
            f"_s_{a.name}_{k}" for a in proc.arrays for k in range(len(a.dims))
        )
        self._dtypes = {a.name: a.dtype for a in proc.arrays}
        self.sites: list[Site] = []
        self._temps = count()
        self._block: Optional[_Block] = None  # set while such a loop's body is lowered

    @property
    def kernel_args(self) -> tuple[str, ...]:
        offsets = tuple(f"_o{n}" for n in range(len(self.sites)))
        ndarrays = tuple(f"_n_{a}" for a in self._dtypes)
        return ("_ap", "_buf", "_flush", "_blk") + ndarrays + self._strides + offsets

    @staticmethod
    def _block_of(loop: Loop) -> Optional[_Block]:
        """A block for ``loop`` if its touches are the same affine sequence
        whatever the data: straight-line assignments, no load that ``AND`` /
        ``OR`` could skip, every subscript ``c + var*d``."""
        if not all(isinstance(s, (Assign, Comment)) for s in loop.body):
            return None
        varying = frozenset(
            s.target.name
            for s in loop.body
            if isinstance(s, Assign) and isinstance(s.target, Var)
        )
        exprs = list(walk_exprs(loop.body))
        if loop.var in varying or any(
            isinstance(e, LogicalOp) and any(array_refs(e)) for e in exprs
        ):
            return None
        coefficients = {
            e: [_coefficient(i, loop.var, varying) for i in e.index]
            for e in exprs
            if isinstance(e, ArrayRef)
        }
        if not coefficients or any(d is None for ds in coefficients.values() for d in ds):
            return None
        return _Block(coefficients, [])

    def loop(self, stmt, rng, lower_body):
        self._block = self._block_of(stmt)
        if self._block is None:
            return super().loop(stmt, rng, lower_body)
        block, body = self._block, lower_body()
        self._block = None
        if stmt.step == ONE:
            steps = ", ".join(step for _, step, _, _ in block.events)
        else:
            steps = ", ".join(f"({step})*_r.step" for _, step, _, _ in block.events)
        firsts = ", ".join(first for first, _, _, _ in block.events)
        events = f"_blk(len(_r), (({steps},), ({firsts},))"
        opening = [f"_r = {rng}", "if _r:", f"    {stmt.var} = _r[0]"]
        arrays = _Arrays(stmt, block.coefficients).lower(self._dtypes)
        if arrays is None:
            return opening + [f"    {events})", f"    for {stmt.var} in _r:"] + _indent(body, 2)
        pairs = tuple((s, t) for s, (*_, array, write) in enumerate(block.events) if write
                      for t, (*_, other, _) in enumerate(block.events) if other == array)
        return opening + [
            f"    if {events}, {pairs}):",
            *_indent(arrays, 2),
            "    else:",
            f"        for {stmt.var} in _r:",
            *_indent(body, 3),
        ]

    def _touch(self, ref: ArrayRef, gen, write: bool) -> None:
        """Number the site of ``ref`` in the block being lowered."""
        step = [
            f"_s_{ref.array}_{k}" if d == ONE else f"{gen(d)}*_s_{ref.array}_{k}"
            for k, d in enumerate(self._block.coefficients[ref])
            if d != ZERO
        ]
        first = self._event(ref.array, [gen(i) for i in ref.index])
        self._block.events.append(
            (first + " + 1" if write else first, " + ".join(step) or "0", ref.array, write)
        )

    def _event(self, array: str, subs: Sequence[str]) -> str:
        offset = f"_o{len(self.sites)}"
        self.sites.append((*self.at, array))
        terms = [
            f"{i}*_s_{array}_{k}" if i.isalnum() else f"({i})*_s_{array}_{k}"
            for k, i in enumerate(subs)
        ]
        return " + ".join([offset] + terms)

    def _subscripts(self, ref, gen) -> list[tuple[str, Optional[str]]]:
        """Per subscript: its source, and the temporary to bind it to if it
        loads an array."""
        return [
            (gen(i), f"_t{next(self._temps)}" if any(array_refs(i)) else None)
            for i in ref.index
        ]

    def load(self, ref, gen):
        if self._block is not None:
            self._touch(ref, gen, False)
            return super().load(ref, gen)
        subs = self._subscripts(ref, gen)
        first = [f"{temp} := {src}" if temp else src for src, temp in subs]
        again = [temp or src for src, temp in subs]
        return f"(_ap({self._event(ref.array, first)}) or {self.element(ref.array, again)})"

    def store(self, ref, gen, rhs):
        if self._block is not None:
            value = gen(rhs)  # its loads come before the store
            self._touch(ref, gen, True)
            return [f"{super().load(ref, gen)} = {value}"]
        subs = self._subscripts(ref, gen)
        bound = [temp or src for src, temp in subs]
        # loads in the target's subscripts happen before the right-hand side
        hoisted = [f"{temp} = {src}" for src, temp in subs if temp]
        return hoisted + [
            f"_v = {gen(rhs)}",
            f"_ap({self._event(ref.array, bound)} + 1)",
            f"{self.element(ref.array, bound)} = _v",
        ]


class _ExprGen:
    """Expression lowering; ``access`` decides how array touches are emitted."""

    def __init__(self, access: _Plain):
        self.access = access

    def gen(self, e: Expr) -> str:
        if isinstance(e, Const):
            return repr(e.value)
        if isinstance(e, Var):
            return e.name
        if isinstance(e, ArrayRef):
            return self.access.load(e, self.gen)
        if isinstance(e, BinOp):
            l, r = self.gen(e.left), self.gen(e.right)
            if e.op == "/":
                return f"_div({l}, {r})"
            if e.op == "**":
                return f"_pow({l}, {r})"
            return f"({l} {e.op} {r})"
        if isinstance(e, IntDiv):
            return f"_idiv({self.gen(e.left)}, {self.gen(e.right)})"
        if isinstance(e, Min):
            return f"min({', '.join(self.gen(a) for a in e.args)})"
        if isinstance(e, Max):
            return f"max({', '.join(self.gen(a) for a in e.args)})"
        if isinstance(e, Call):
            name = _INTRINSIC_NAMES.get(e.name.upper())
            if name is None:
                raise SemanticsError(f"unknown intrinsic {e.name}")
            return f"{name}({', '.join(self.gen(a) for a in e.args)})"
        if isinstance(e, Compare):
            return f"({self.gen(e.left)} {_PY_CMP[e.op]} {self.gen(e.right)})"
        if isinstance(e, LogicalOp):
            joiner = " and " if e.op == "and" else " or "
            return "(" + joiner.join(self.gen(a) for a in e.args) + ")"
        if isinstance(e, Not):
            return f"(not {self.gen(e.arg)})"
        raise SemanticsError(f"unknown expression {type(e).__name__}")  # pragma: no cover


def _gen_body(body, gen: _ExprGen, path: tuple[str, ...] = ()) -> list[str]:
    """The lines of ``body``, indented from column 0."""
    lines: list[str] = []
    emitted = False
    for stmt in body:
        if isinstance(stmt, Comment):
            lines.append(f"# {stmt.text}")
            continue
        emitted = True
        gen.access.at = (path, stmt)
        if isinstance(stmt, Assign):
            if isinstance(stmt.target, ArrayRef):
                lines.extend(gen.access.store(stmt.target, gen.gen, stmt.value))
            else:
                lines.append(f"{stmt.target.name} = {gen.gen(stmt.value)}")
        elif isinstance(stmt, Loop):
            lo, hi = gen.gen(stmt.lo), gen.gen(stmt.hi)
            if stmt.step == ONE:
                rng = f"range({lo}, {hi} + 1)"
            else:
                # Fortran trip count: works for negative steps too because
                # range() stops before crossing the bound in step direction.
                # The step is evaluated once, after the bounds.
                rng = (
                    f"range({lo}, {hi} + (1 if (_step := {gen.gen(stmt.step)}) > 0 else -1), "
                    f"_step or _zero_step('{stmt.var}'))"
                )
            lower = lambda: _gen_body(stmt.body, gen, path + (stmt.var,))  # noqa: E731
            lines.extend(gen.access.loop(stmt, rng, lower))
            if gen.access.flush and find_loops(stmt.body):
                lines.append("    " + gen.access.flush)
        elif isinstance(stmt, If):
            lines.append(f"if {gen.gen(stmt.cond)}:")
            lines.extend(_indent(_gen_body(stmt.then, gen, path)))
            if stmt.els:
                lines.append("else:")
                lines.extend(_indent(_gen_body(stmt.els, gen, path)))
        elif isinstance(stmt, (BlockLoop, InLoop)):
            raise SemanticsError("BLOCK DO / IN DO must be lowered before codegen")
        else:  # pragma: no cover - defensive
            raise SemanticsError(f"unknown statement {type(stmt).__name__}")
    if not emitted:
        lines.append("pass")
    return lines


def _source(proc: Procedure, access: _Plain) -> str:
    lines = _indent(_gen_body(proc.body, _ExprGen(access)))
    args = list(proc.params) + [a.name for a in proc.arrays] + list(access.kernel_args)
    return "\n".join([f"def _kernel({', '.join(args)}):"] + lines) + "\n"


def generate_source(proc: Procedure, traced: bool = False) -> str:
    """Python source text for ``proc`` as a function ``_kernel(...)``.

    Parameters come first, then arrays in declaration order; traced mode
    additionally takes the ``_ld``/``_st`` callbacks.
    """
    return _source(proc, _Callbacks() if traced else _Plain())


def _zero_step(var: str):
    raise SemanticsError(f"loop {var}: zero step")


def _compile(proc: Procedure, src: str) -> Callable:
    namespace: dict = {
        "_zero_step": _zero_step,
        "_idiv": idiv,
        "_div": _div,
        "_pow": _pow,
        "_span": _span,
        "_mod": _mod,
        "_sqrt": math.sqrt,
        "np": np,
    }
    exec(compile(src, f"<repro:{proc.name}>", "exec"), namespace)
    return namespace["_kernel"]


def _elements(proc: Procedure, env: dict) -> list:
    """The parameters, then the arrays as single elements are read and
    written through: ``float64`` as a memoryview (Python floats, cheaper
    than numpy scalars, same IEEE arithmetic) unless the procedure has a
    ``float32`` array too (next to which a Python float is a weak operand,
    NEP 50); others as themselves, so ``float32`` rounds after each
    operation and integers stay the interpreter's."""
    views = all(a.dtype != "f4" for a in proc.arrays)
    return [env[p] for p in proc.params] + [
        memoryview(env[a.name]) if views and a.dtype == "f8" else env[a.name]
        for a in proc.arrays
    ]


def compile_procedure(proc: Procedure, traced: bool = False) -> Callable:
    """Compile ``proc``; returns ``run(sizes, arrays=None, tracer=None, seed=0)``.

    The returned runner builds a fresh environment per call (fresh copies of
    any supplied arrays, Fortran order) and returns the final environment
    dict, mirroring :func:`repro.runtime.interpreter.execute` exactly.
    """
    src = generate_source(proc, traced=traced)
    kernel = _compile(proc, src)

    def run(
        sizes: Mapping[str, int],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        tracer: Optional[Tracer] = None,
        seed: int = 0,
    ) -> dict:
        env = make_env(proc, sizes, arrays, seed=seed)
        if not traced:
            if tracer is not None:
                raise ValueError("tracer requires traced=True compilation")
            kernel(*_elements(proc, env))
            return env
        data = {a.name: env[a.name] for a in proc.arrays}
        trace = tracer.access if tracer is not None else lambda *touch: None

        def _ld(name, idx):
            trace(name, idx, False)
            return data[name][tuple(i - 1 for i in idx)]

        def _st(name, idx, value):
            trace(name, idx, True)
            data[name][tuple(i - 1 for i in idx)] = value

        kernel(*[env[p] for p in proc.params], *data.values(), _ld, _st)
        return env

    run.source = src  # type: ignore[attr-defined]
    return run


def compile_stream(proc: Procedure) -> Callable:
    """Compile ``proc`` in the stream flavour; returns
    ``run(sizes, layout, consume, arrays=None, seed=0)``.

    ``layout`` gives each array's affine address map (``layout.affine(name)``,
    see :class:`repro.machine.layout.Layout`).  ``consume(addresses,
    is_write, sites)`` is called with three equal-length numpy arrays
    (``int64``, ``bool``, ``int64``) per chunk of at most about ``CHUNK``
    touches; the chunks, in order, are the program's element-touch sequence,
    and ``sites`` indexes ``run.sites``, the :data:`Site` of every
    ``ArrayRef`` occurrence.  Environment handling and the return value are
    those of :func:`compile_procedure`.
    """
    access = _Stream(proc)
    src = _source(proc, access)
    kernel = _compile(proc, src)
    sites = access.sites

    def run(
        sizes: Mapping[str, int],
        layout,
        consume: Callable[[np.ndarray, np.ndarray, np.ndarray], None],
        arrays: Optional[Mapping[str, np.ndarray]] = None,
        seed: int = 0,
    ) -> dict:
        end = max(
            (layout.base_addr[a.name] + layout.footprint_bytes(a.name) for a in proc.arrays),
            default=0,
        )
        shift = (2 * end).bit_length()  # 2*address + is_write < 2**shift
        if len(sites) << shift >= 1 << 63:
            raise MachineError(
                f"{len(sites)} sites over a layout ending at byte {end} "
                "do not fit a 64-bit stream event"
            )
        address_bits = (1 << shift) - 1

        env = make_env(proc, sizes, arrays, seed=seed)
        buf = array("q")

        def flush() -> None:
            events = np.frombuffer(buf, dtype=np.int64)
            decoded = (
                (events & address_bits) >> 1,
                (events & 1).astype(bool),
                events >> shift,
            )
            del events  # releases the buffer export so that buf can shrink
            del buf[:]
            consume(*decoded)

        ramp = np.ones((0, 2), dtype=np.int64)  # rows [k, 1]

        def block(trips: int, steps_and_firsts, pairs=None) -> bool:
            """Append ``firsts + k*steps`` for ``k`` below ``trips``; with
            ``pairs``, whether the block may run as array statements."""
            nonlocal ramp
            if trips > len(ramp):
                ramp = np.ones((max(trips, 2 * len(ramp)), 2), dtype=np.int64)
                ramp[:, 0] = np.arange(len(ramp))
            # dtype: a subscript that is not an integer fails here, as it
            # does in ``buf.append``
            events = np.matmul(ramp[:trips], steps_and_firsts, dtype=np.int64)
            buf.frombytes(events.tobytes())
            return pairs is not None and _disjoint(trips, *steps_and_firsts, pairs, address_bits)

        call = _elements(proc, env) + [buf.append, buf, flush, block]
        call += [env[a.name] for a in proc.arrays]
        offsets = {}
        for a in proc.arrays:
            offset, strides = layout.affine(a.name)
            offsets[a.name] = 2 * offset
            call += [2 * s for s in strides]
        call += [(n << shift) + offsets[a] for n, (_, _, a) in enumerate(sites)]
        kernel(*call)
        if buf:
            flush()
        return env

    run.source = src  # type: ignore[attr-defined]
    run.sites = sites  # type: ignore[attr-defined]
    return run
