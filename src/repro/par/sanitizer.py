"""Dynamic race sanitizer: adversarial runtime check of PARALLEL verdicts.

The static detector's ``PARALLEL`` verdict claims no two iterations of the
marked loop touch the same array element with at least one write.  This
module checks that claim *dynamically*, in the spirit of the existing
interpreter-vs-codegen differential verifier: an instrumented interpreter
(:class:`RaceSanitizer`) executes the procedure serially while recording a
per-iteration read/write shadow footprint for every active
``PARALLEL DO`` loop, and emits a structured :class:`RaceConflict`
(iteration pair, statement, array element, dependence kind) whenever two
different iterations conflict.

``PARALLEL REDUCTION DO`` loops are exempt: their iterations conflict on
the accumulator by construction and commute instead.  So the detector,
through the ``repro.check`` marker audit, is the only judge of a
REDUCTION marker: over the prefix sum ``S = S + A(I); B(I) = S`` the
conflicts on ``S`` look like any accumulation's here, and only the
detector sees that ``B(I)`` reads ``S`` between updates (SERIAL).

A conflict means the static layer mis-marked the loop, so conflicts carry
the same rule id (``legal/par-carried-dep``) that the static
``repro.check`` legality audit reports for a wrong marker — the two layers
agree on the vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from repro.ir.pretty import fmt_stmt
from repro.ir.stmt import ParallelLoop, Procedure, Stmt
from repro.ir.visit import walk_stmts
from repro.runtime.interpreter import Interpreter, make_env

CONFLICT_RULE = "legal/par-carried-dep"


@dataclass(frozen=True)
class RaceConflict:
    """Two iterations of a marked-PARALLEL loop touched the same element."""

    loop: str
    kind: str  # flow | anti | output
    array: str
    index: tuple[int, ...]
    iter_a: int
    iter_b: int
    stmt_a: str
    stmt_b: str
    rule: str = CONFLICT_RULE

    def to_dict(self) -> dict:
        return {
            "loop": self.loop,
            "kind": self.kind,
            "array": self.array,
            "index": list(self.index),
            "iterations": [self.iter_a, self.iter_b],
            "stmt_a": self.stmt_a,
            "stmt_b": self.stmt_b,
            "rule": self.rule,
        }

    def describe(self) -> str:
        element = f"{self.array}({', '.join(str(i) for i in self.index)})"
        return (
            f"{self.loop}: iterations {self.iter_a} and {self.iter_b} "
            f"{self.kind}-conflict on {element} "
            f"[{self.stmt_a!r} vs {self.stmt_b!r}]"
        )


class _Frame:
    """Shadow footprint of the currently executing PARALLEL DO loop."""

    __slots__ = ("loop", "iter", "shadow")

    def __init__(self, loop: ParallelLoop):
        self.loop = loop
        # None until the first trip: the loop's own bound loads precede it
        # and belong to no iteration
        self.iter: Optional[int] = None
        # (array, index) -> [write_iter, write_stmt, read_iter, read_stmt]
        self.shadow: dict = {}


class RaceSanitizer(Interpreter):
    """Interpreter that monitors ``PARALLEL DO`` iterations for races.

    Execution is serial and byte-identical to the plain interpreter: the
    sanitizer is its own tracer, so every array access reaches
    :meth:`access`, and it overrides only the ``_stmt`` and ``_iteration``
    hooks to open a frame per ``PARALLEL DO`` and number its trips.
    Accesses inside nested parallel loops are recorded against every
    active frame, so a conflict is attributed to each loop level whose
    parallelism it violates.
    """

    def __init__(self, env: dict, max_conflicts: int = 100):
        super().__init__(env, tracer=self)
        self.conflicts: list[RaceConflict] = []
        self.max_conflicts = max_conflicts
        self._frames: list[_Frame] = []
        # the statement whose own expressions are being evaluated; kept as
        # the node and rendered only when a conflict names it
        self._cur_stmt: Optional[Stmt] = None
        self._seen: set = set()

    # ---- recording -------------------------------------------------------
    def _conflict(self, frame: _Frame, kind: str, array: str, idx, other_iter, other_stmt):
        key = (frame.loop.var, array, idx, kind)
        if key in self._seen or len(self.conflicts) >= self.max_conflicts:
            return
        self._seen.add(key)
        self.conflicts.append(
            RaceConflict(
                loop=frame.loop.var,
                kind=kind,
                array=array,
                index=idx,
                iter_a=other_iter,
                iter_b=frame.iter,
                stmt_a=fmt_stmt(other_stmt),
                stmt_b=fmt_stmt(self._cur_stmt),
            )
        )

    def access(self, array: str, idx: tuple[int, ...], is_write: bool) -> None:
        """The tracer hook: record one access in every open frame."""
        for frame in self._frames:
            if frame.iter is None:
                continue
            cell = frame.shadow.get((array, idx))
            if cell is None:
                cell = frame.shadow[(array, idx)] = [None, None, None, None]
            v = frame.iter
            if is_write:
                if cell[0] is not None and cell[0] != v:
                    self._conflict(frame, "output", array, idx, cell[0], cell[1])
                elif cell[2] is not None and cell[2] != v:
                    self._conflict(frame, "anti", array, idx, cell[2], cell[3])
                cell[0], cell[1] = v, self._cur_stmt
            else:
                if cell[0] is not None and cell[0] != v:
                    self._conflict(frame, "flow", array, idx, cell[0], cell[1])
                cell[2], cell[3] = v, self._cur_stmt

    # ---- interpreter hooks -------------------------------------------------
    def _stmt(self, stmt: Stmt) -> None:
        # before the statement's own loads: an IF condition or a loop
        # bound is charged to its IF or DO line, not the last assignment
        self._cur_stmt = stmt
        if isinstance(stmt, ParallelLoop) and stmt.kind == "parallel":
            self._frames.append(_Frame(stmt))
            try:
                super()._stmt(stmt)
            finally:
                self._frames.pop()
        else:
            super()._stmt(stmt)

    def _iteration(self, loop, v: int) -> None:
        if self._frames and self._frames[-1].loop is loop:
            self._frames[-1].iter = v
        super()._iteration(loop, v)


@dataclass
class SanitizeResult:
    """Outcome of one sanitized execution."""

    env: dict
    conflicts: list[RaceConflict]
    loops_checked: int

    @property
    def clean(self) -> bool:
        return not self.conflicts

    def to_dict(self) -> dict:
        return {
            "loops_checked": self.loops_checked,
            "conflicts": [c.to_dict() for c in self.conflicts],
            "clean": self.clean,
        }


def parallel_loop_count(proc: Procedure) -> int:
    return sum(
        1
        for s in walk_stmts(proc)
        if isinstance(s, ParallelLoop) and s.kind == "parallel"
    )


def sanitize(
    proc: Procedure,
    sizes: Mapping[str, int],
    arrays: Optional[Mapping[str, np.ndarray]] = None,
    seed: int = 0,
    max_conflicts: int = 100,
) -> SanitizeResult:
    """Execute ``proc`` under the race sanitizer.

    The procedure should carry ``PARALLEL DO`` markers (see
    :func:`repro.par.detect.annotate_procedure`); unmarked procedures run
    unmonitored and trivially come back clean.
    """
    from repro.obs import core as _obs

    env = make_env(proc, sizes, arrays, seed=seed)
    san = RaceSanitizer(env, max_conflicts=max_conflicts)
    with _obs.span(f"sanitize:{proc.name}", cat="par"):
        san.run(proc.body)
    return SanitizeResult(env, san.conflicts, parallel_loop_count(proc))
