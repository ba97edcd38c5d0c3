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
addresses — and as the plain scalar loop otherwise.  Every other innermost
loop keeps the per-touch form: a guard in the body (givens' ``J`` loop, the
guarded matmul's ``K`` loop), a subscript that is loaded (``A(IP(K))``) or
assigned in the body.  There is no switch.

Lane form.  A loop whose iterations are translates of the first is a *lane
loop*: the nearest loop around innermost loops that all stay out of array
statements (a carried scalar, a store to one element throughout), whose
body is assignments and loops with no ``IF``, whose inner bounds and steps
read neither its variable nor anything the body assigns, whose every
subscript is ``c + var*d`` with ``d`` fixed throughout and every store
moving with ``var``, and whose body :class:`_Arrays` can run on slices of
``var`` (lu.derived's trailing ``J`` loop, givens.derived's ``K`` loop,
:meth:`_Stream._lane_of`).  Then every lane (iteration) runs the same
trips, and lane ``k``'s ``n``-th event is lane 0's moved by ``k*step`` of
its site.  Lane 0 runs as any body does, without flushing, and leaves its
events in the buffer; :func:`_disjoint` then decides, on the interval of
each site's lane-0 elements, whether any lane touches an element that
another writes.  If none does, lanes 1.. append lane 0's events moved by
``k*step`` (the block product again, in groups of about ``CHUNK``) and run
as array statements on a slice of ``var``, inner loops kept; else they run
as lane 0 did.  The events are those of the loop, in order, either way;
and as no lane reads what another writes, each written element gets the
same operations in the same order, so the bytes are the loop's too.

The interpreter (:mod:`repro.runtime.interpreter`) defines the semantics;
the test suite cross-checks the engines statement-for-statement on every
algorithm in the repository.
"""

from __future__ import annotations

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
from repro.ir.visit import array_refs, find_loops, walk_exprs, walk_stmts
from repro.runtime.interpreter import Tracer, idiv, make_env, mod, sqrt, to_int

_PY_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}

_INTRINSIC_NAMES = {
    "SQRT": "_sqrt",
    "DSQRT": "_sqrt",
    "ABS": "abs",
    "DABS": "abs",
    "DBLE": "float",
    "REAL": "float",
    "INT": "_int",
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


CHUNK = 8192
"""Events a stream kernel buffers before it hands them to the consumer.
Checked at the end of every non-innermost loop body, so a buffer overshoots
by at most one innermost loop nest, and before each group of lanes that a
lane loop appends, so by at most one lane.  A constant, not a knob: every
count is independent of it (the consumer is exact for any split of the
stream), host time is flat from 4 Ki to 16 Ki, and beyond that a larger
buffer only adds resident memory (DESIGN.md §4 has the measurements)."""

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
    """An innermost loop that is being lowered as one block of events, or a
    lane loop whose body is."""

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


def _disjoint(trips: int, steps: Sequence[int], lows: Sequence[int],
              pairs: Sequence[tuple[int, int]], address_bits: int,
              highs: Optional[Sequence[int]] = None) -> bool:
    """Whether no iteration of a block, or lane of a lane loop, touches an
    element that another writes.  Site ``n`` touches the event ``lows[n] +
    k*steps[n]`` in iteration ``k`` below ``trips``, or, in a lane, events
    from ``lows[n] + k*steps[n]`` to ``highs[n] + k*steps[n]``; each pair is
    a store and a site on its array, the store itself included.  A pair
    meets where the gap between its elements in one iteration is ``m*step``:
    for equal steps, ``m = k - k'`` is not zero; for a moving site and a
    fixed one, the moving one is on the fixed one's element in iteration
    ``m`` and every other iteration touches that element.  With one event
    per site the gap is one number and the test exact; over lane 0's
    interval of gaps, a multiple anywhere in it counts, which is sound.
    Other steps count as a conflict."""
    if trips < 2:
        return True
    if highs is None:
        highs = lows
    for s, t in pairs:
        low = ((lows[t] & address_bits) >> 1) - ((highs[s] & address_bits) >> 1)
        high = ((highs[t] & address_bits) >> 1) - ((lows[s] & address_bits) >> 1)
        step, other = steps[s] >> 1, steps[t] >> 1
        if step == other:  # the gaps' distances from 0, m from 1 on
            if step == 0:
                if low <= 0 <= high:
                    return False
                continue
            first = 1
            if step < 0:
                step = -step
            if high < 0:
                low, high = -high, -low
            elif -low > high:
                high = -low
        elif step == 0 or other == 0:  # a positive moving step, m from 0 on
            first = 0
            if step == 0:
                low, high, step = -high, -low, other
            if step < 0:
                low, high, step = -high, -low, -step
        else:
            return False
        least, most = -(-low // step), high // step  # m*step in [low, high]
        if least <= most and least < trips and most >= first:
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
    """A block's body, or the body of a lane loop's lanes after the first,
    as array statements run once for all its iterations.  The loop variable
    holds its first value meanwhile, and a subscript that moves with it is a
    slice over every iteration's element (:func:`_span`), computed once
    unless it also moves with a loop inside.  An array is the ndarray
    ``_n_<name>``: element by element, ``<name>`` may be a memoryview."""

    def __init__(self, loop: Loop, coefficients: dict[ArrayRef, list[Expr]]):
        self.loop, self.coefficients = loop, coefficients
        self.spans: dict[str, str] = {}  # "start, step" -> the slice's name
        self.inner = frozenset(inner.var for inner in find_loops(loop.body))

    def load(self, ref, gen):
        subs = []
        for k, i in enumerate(ref.index):
            if self.loop.var not in free_vars(i):  # fixed, or a load in a bound
                subs.append(f"{gen(i)} - 1")
                continue
            d = gen(self.coefficients[ref][k])
            step = d if self.loop.step == ONE else f"{d}*_r.step"
            key = f"{gen(i)} - 1, {step}"
            if self.inner & free_vars(i):
                subs.append(f"_span({key}, len(_r))")
            else:
                subs.append(self.spans.setdefault(key, f"_i{len(self.spans)}"))
        return f"_n_{ref.array}[{', '.join(subs)}]"

    def lower(self, dtypes: Mapping[str, str]) -> Optional[list[str]]:
        """The statements, then the loop's final scalars; ``None`` where the
        IR rules them out: an array that is not floating point (an integer
        vector would divide without truncating), a reference with two
        subscripts that move (a diagonal is no slice), a store to one element
        throughout (an output dependence), a value that is not
        :func:`_elementwise`.  A slice is a view, so a scalar assigned one
        gets a copy, private as in the loop."""
        for ref in self.coefficients:
            moving = sum(self.loop.var in free_vars(i) for i in ref.index)
            if not dtypes[ref.array].startswith("f") or moving > 1:
                return None
        scalars = list(dict.fromkeys(s.target.name for s in walk_stmts(self.loop.body)
                                     if isinstance(s, Assign) and isinstance(s.target, Var)))
        lines = self._statements(self.loop.body, set(scalars), _ExprGen(self).gen)
        if lines is None:
            return None
        spans = [f"{name} = _span({key}, len(_r))" for key, name in self.spans.items()]
        top = {s.target.name for s in self.loop.body
               if isinstance(s, Assign) and isinstance(s.target, Var)}
        last = []
        for v in scalars:
            line = f"{v} = {v}[-1] if isinstance({v}, np.ndarray) else {v}"
            # a scalar that only loops assign is unbound if none ran a trip
            last += [line] if v in top else ["try:", f"    {line}", "except NameError:", "    pass"]
        return spans + lines + [f"{self.loop.var} = _r[-1]"] + last

    def _statements(self, body, unset: set[str], gen) -> Optional[list[str]]:
        """The lines of ``body``, whose statements may read no scalar of
        ``unset`` before they assign it; a scalar that a loop assigns stays
        unset after it, which may run no trip."""
        lines: list[str] = []
        for s in body:
            if isinstance(s, Loop):
                inner = self._statements(s.body, set(unset), gen)
                if inner is None:
                    return None
                lines += [f"for {s.var} in {_range(s, gen)}:", *_indent(inner)]
            elif isinstance(s, Assign):
                if not _elementwise(s.value, self.loop.var, unset):
                    return None
                if isinstance(s.target, ArrayRef):
                    if all(d == ZERO for d in self.coefficients[s.target]):
                        return None
                    lines.append(f"{self.load(s.target, gen)} = {gen(s.value)}")
                    continue
                view = isinstance(s.value, ArrayRef) and self.loop.var in free_vars(s.value)
                lines.append(f"{s.target.name} = {gen(s.value)}{'.copy()' if view else ''}")
                unset.discard(s.target.name)
        return lines or ["pass"]


class _Stream(_Plain):
    """Every touch appends its event to ``_buf`` in-line, or a whole
    innermost loop appends its events as one block, or the lanes of a lane
    loop after the first append the first's events, shifted (the module
    docstring has the encoding, the ordering argument and the rules).
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
        self._lane: Optional[_Block] = None  # set while a lane loop's body is lowered

    @property
    def kernel_args(self) -> tuple[str, ...]:
        offsets = tuple(f"_o{n}" for n in range(len(self.sites)))
        ndarrays = tuple(f"_n_{a}" for a in self._dtypes)
        return ("_ap", "_buf", "_flush", "_blk", "_lanes") + ndarrays + self._strides + offsets

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

    def _refused(self, loop: Loop) -> bool:
        """Whether ``loop``, an innermost one, never runs as array statements."""
        block = self._block_of(loop)
        return block is None or _Arrays(loop, block.coefficients).lower(self._dtypes) is None

    def _lane_of(self, loop: Loop) -> Optional[tuple[dict[ArrayRef, list[Expr]], list[str]]]:
        """The coefficients and the array statements of ``loop``'s lanes if
        it is a lane loop: assignments and loops inside, the same trips in
        every lane, every subscript ``c + var*d`` with ``d`` fixed
        throughout, every store moving, every innermost loop refused as
        array statements and none of the loops between a lane loop, and
        lanes that :class:`_Arrays` admits."""
        inner = find_loops(loop.body)
        bounds = [free_vars(e) for m in inner for e in (m.lo, m.hi, m.step)]
        if not inner or any(loop.var in reads for reads in bounds):
            return None
        stmts = list(walk_stmts(loop.body))
        if not all(isinstance(s, (Assign, Loop, Comment)) for s in stmts):
            return None
        assigns = [s for s in stmts if isinstance(s, Assign)]
        assigned = frozenset(s.target.name for s in assigns if isinstance(s.target, Var))
        written = {s.target.array for s in assigns if isinstance(s.target, ArrayRef)}
        variables = {m.var for m in inner} | {loop.var}
        if assigned & variables or any(reads & assigned for reads in bounds) or any(
            r.array in written for m in inner for e in (m.lo, m.hi, m.step) for r in array_refs(e)
        ):
            return None
        coefficients = {}
        for ref in array_refs(assigns):
            coefficients[ref] = [_coefficient(i, loop.var, assigned) for i in ref.index]
            if any(d is None or free_vars(d) & variables for d in coefficients[ref]):
                return None
        # a store that stays put refuses the lanes before the inner blocks
        # are tried as array statements, which costs more
        if not coefficients or any(all(d == ZERO for d in coefficients[s.target])
                                   for s in assigns if isinstance(s.target, ArrayRef)):
            return None
        if not all(self._refused(m) for m in inner if not find_loops(m.body)):
            return None
        if any(self._lane_of(m) for m in inner if find_loops(m.body)):
            return None
        arrays = _Arrays(loop, coefficients).lower(self._dtypes)
        return None if arrays is None else (coefficients, arrays)

    def loop(self, stmt, rng, lower_body):
        lane = None if self._lane is not None else self._lane_of(stmt)
        if lane is not None:
            return self._lane_loop(stmt, rng, lower_body, *lane)
        self._block = self._block_of(stmt)
        if self._block is None:
            return super().loop(stmt, rng, lower_body)
        block, body = self._block, lower_body()
        self._block = None
        firsts = ", ".join(first for first, _, _, _ in block.events)
        events = f"_blk(len(_r), (({_steps(block.events, stmt, '_r')},), ({firsts},))"
        opening = [f"_r = {rng}", "if _r:", f"    {stmt.var} = _r[0]"]
        arrays = _Arrays(stmt, block.coefficients).lower(self._dtypes)
        if arrays is None:
            return opening + [f"    {events})", f"    for {stmt.var} in _r:"] + _indent(body, 2)
        return opening + [
            f"    if {events}, {_pairs(block.events)}):",
            *_indent(arrays, 2),
            "    else:",
            f"        for {stmt.var} in _r:",
            *_indent(body, 3),
        ]

    def _lane_loop(self, stmt, rng, lower_body, coefficients, arrays) -> list[str]:
        """Lane 0 as the body runs anywhere, without flushing; then, if
        ``_lanes`` admits them, the other lanes' events and array
        statements, else the other iterations as lane 0 ran."""
        first = len(self.sites)
        self._lane = _Block(coefficients, [])
        lane, body = self._lane, lower_body()
        self._lane = None
        steps = _steps(lane.events, stmt, "_l")
        return [
            f"_l = {rng}",
            "if _l:",
            f"    {stmt.var} = _l[0]",
            "    _m = len(_buf)",
            *_indent([line for line in body if line.strip() != self.flush]),
            f"    if _lanes(len(_l), _m, {first}, ({steps},), {_pairs(lane.events)}):",
            "        _r = _l[1:]",
            f"        {stmt.var} = _r[0]",
            *_indent(arrays, 2),
            "    else:",
            f"        for {stmt.var} in _l[1:]:",
            *_indent(body, 3),
        ]

    def _event(self, ref: ArrayRef, subs: Sequence[str], write: bool) -> str:
        """Number the site of ``ref`` and return its event, which the block
        or lane being lowered records with what one more of its loop
        variable adds."""
        offset = f"_o{len(self.sites)}"
        self.sites.append((*self.at, ref.array))
        terms = [
            f"{i}*_s_{ref.array}_{k}" if i.isalnum() else f"({i})*_s_{ref.array}_{k}"
            for k, i in enumerate(subs)
        ]
        event = " + ".join([offset] + terms) + (" + 1" if write else "")
        for form in (self._block, self._lane):
            if form is not None:
                step = _address_step(ref, form.coefficients.get(ref, ()))
                form.events.append((event, step, ref.array, write))
        return event

    def _subscripts(self, ref, gen) -> list[tuple[str, Optional[str]]]:
        """Per subscript: its source, and the temporary to bind it to if it
        loads an array."""
        return [
            (gen(i), f"_t{next(self._temps)}" if any(array_refs(i)) else None)
            for i in ref.index
        ]

    def load(self, ref, gen):
        if self._block is not None:
            self._event(ref, [gen(i) for i in ref.index], False)
            return super().load(ref, gen)
        subs = self._subscripts(ref, gen)
        first = [f"{temp} := {src}" if temp else src for src, temp in subs]
        again = [temp or src for src, temp in subs]
        return f"(_ap({self._event(ref, first, False)}) or {self.element(ref.array, again)})"

    def store(self, ref, gen, rhs):
        if self._block is not None:
            value = gen(rhs)  # its loads come before the store
            self._event(ref, [gen(i) for i in ref.index], True)
            return [f"{super().load(ref, gen)} = {value}"]
        subs = self._subscripts(ref, gen)
        bound = [temp or src for src, temp in subs]
        # loads in the target's subscripts happen before the right-hand side
        hoisted = [f"{temp} = {src}" for src, temp in subs if temp]
        return hoisted + [
            f"_v = {gen(rhs)}",
            f"_ap({self._event(ref, bound, True)})",
            f"{self.element(ref.array, bound)} = _v",
        ]


def _address_step(ref: ArrayRef, coefficients: Sequence[Expr]) -> str:
    """What one more of a loop variable adds to the event of ``ref``, given
    the :func:`_coefficient` of each subscript (none for a load in a bound,
    which never moves)."""
    gen = _ExprGen(_Plain()).gen
    terms = [
        f"_s_{ref.array}_{k}" if d == ONE else f"{gen(d)}*_s_{ref.array}_{k}"
        for k, d in enumerate(coefficients)
        if d != ZERO
    ]
    return " + ".join(terms) or "0"


def _steps(events, loop: Loop, rng: str) -> str:
    """Per site of ``events``, what one more iteration of ``loop`` over the
    range ``rng`` adds to its event."""
    if loop.step == ONE:
        return ", ".join(step for _, step, _, _ in events)
    return ", ".join(f"({step})*{rng}.step" for _, step, _, _ in events)


def _pairs(events) -> tuple[tuple[int, int], ...]:
    """Per store of ``events``, it and every site on its array."""
    return tuple((s, t) for s, (*_, array, write) in enumerate(events) if write
                 for t, (*_, other, _) in enumerate(events) if other == array)


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


def _range(loop: Loop, gen: Callable[[Expr], str]) -> str:
    """The ``range`` a ``DO`` runs over.  Fortran trip count: works for
    negative steps too because ``range()`` stops before crossing the bound
    in step direction.  The step is evaluated once, after the bounds."""
    lo, hi = gen(loop.lo), gen(loop.hi)
    if loop.step == ONE:
        return f"range({lo}, {hi} + 1)"
    return (
        f"range({lo}, {hi} + (1 if (_step := {gen(loop.step)}) > 0 else -1), "
        f"_step or _zero_step('{loop.var}'))"
    )


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
            lower = lambda: _gen_body(stmt.body, gen, path + (stmt.var,))  # noqa: E731
            lines.extend(gen.access.loop(stmt, _range(stmt, gen.gen), lower))
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
        "_mod": mod,
        "_sqrt": sqrt,
        "_int": to_int,
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
    (``int64``, ``bool``, ``int64``) per chunk of ``CHUNK`` touches and at
    most one innermost loop nest or one lane loop's lane more; the chunks,
    in order, are the program's element-touch sequence,
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

        def lanes(trips: int, mark: int, first: int, steps, pairs) -> bool:
            """Lane 0 of a lane loop appended ``buf[mark:]``, touches of the
            sites from ``first`` on, and lane ``k`` touches each moved by
            ``k*steps[site - first]``.  If no lane touches an element that
            another writes, append the other lanes' events and say so."""
            if trips < 2:
                return False
            events = np.frombuffer(buf[mark:], dtype=np.int64)
            if not len(events):
                return True  # no lane touches anything
            # per site, its lowest and highest event (an event's high bits
            # are its site's number)
            ordered = np.sort(events)
            at = np.searchsorted(ordered, np.arange(first, first + len(steps) + 1) << shift)
            lows = ordered[np.minimum(at[:-1], len(ordered) - 1)].tolist()
            highs = ordered[at[1:] - 1].tolist()
            touched = (at[1:] > at[:-1]).tolist()
            pairs = [(s, t) for s, t in pairs if touched[s] and touched[t]]
            if not _disjoint(trips, steps, lows, pairs, address_bits, highs):
                return False
            moves = np.array(steps, dtype=np.int64)[(events >> shift) - first]
            k = 1
            while k < trips:
                if len(buf) > CHUNK:
                    flush()
                group = min(trips - k, (CHUNK - len(buf)) // len(events) + 1)
                block(group, (moves, events + k * moves))
                k += group
            return True

        call = _elements(proc, env) + [buf.append, buf, flush, block, lanes]
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
