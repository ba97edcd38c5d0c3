"""``Domain``: a loop nest's iteration space as a value.

Ordered loop variables, each with IR bounds (and a step) over the
variables before it.  Its one job is to enumerate the points of a nest on
small concrete bounds, in execution order — the brute-force side of the
property tests, so it evaluates bounds with the reference interpreter and
never asks the analyses anything.
"""

from __future__ import annotations

from typing import Iterator

from repro.ir.expr import Expr
from repro.ir.stmt import Loop
from repro.runtime.interpreter import Interpreter


class Domain:
    """Points of ``DO vars[0] = lo0, hi0, step0 / DO vars[1] = ...``,
    where bound ``k`` may name ``vars[:k]``."""

    def __init__(self, vars: tuple[str, ...], bounds: tuple[tuple[Expr, Expr, Expr], ...]) -> None:
        assert len(vars) == len(bounds) and len(set(vars)) == len(vars)
        self.vars = tuple(vars)
        self.bounds = tuple(bounds)

    @classmethod
    def of(cls, nest: Loop) -> Domain:
        """The domain of a perfect nest rooted at ``nest``."""
        loops = [nest]
        while len(loops[-1].body) == 1 and isinstance(loops[-1].body[0], Loop):
            loops.append(loops[-1].body[0])
        return cls(tuple(l.var for l in loops), tuple((l.lo, l.hi, l.step) for l in loops))

    def points(self) -> Iterator[tuple[int, ...]]:
        """Every iteration vector, lexicographically in execution order."""

        def walk(depth: int, prefix: tuple[int, ...]):
            if depth == len(self.vars):
                yield prefix
                return
            at = Interpreter(dict(zip(self.vars, prefix)))
            lo, hi, step = (at.eval(b) for b in self.bounds[depth])
            for v in range(lo, hi + (1 if step > 0 else -1), step):
                yield from walk(depth + 1, prefix + (v,))

        return walk(0, ())

    def __len__(self) -> int:
        return sum(1 for _ in self.points())

    def __eq__(self, other: object) -> bool:
        """Same variables, same points: bound spellings do not matter."""
        if not isinstance(other, Domain):
            return NotImplemented
        return self.vars == other.vars and list(self.points()) == list(other.points())
