"""Static loop-parallelism detection (the Nuriyev parallel-step criterion).

Classifies every ``DO`` loop of a procedure by what its loop-carried
dependences allow:

- ``PARALLEL`` — no dependence is carried at this loop's level and no
  scalar written in the body is read across iterations: the iterations
  can run in any order (or concurrently) with identical results;
- ``REDUCTION`` — every carried dependence (array or scalar) is a
  commutative accumulation ``acc = acc op term``
  (:func:`repro.analysis.commutativity.match_reduction_update`) with
  mutually commuting operators: iterations commute up to floating-point
  reassociation;
- ``SERIAL`` — anything else, with a concrete *witness*: the blocking
  dependence edge, its statements, and its direction vector (or the
  scalar recurrence that blocks).

The test is sound, not exact, in the same direction as the underlying
dependence tester (:mod:`repro.analysis.dependence`): an unknown ``*``
direction is treated as carried, so a ``PARALLEL`` verdict is a proof
while a ``SERIAL`` verdict may be conservative.  The dynamic race
sanitizer (:mod:`repro.par.sanitizer`) adversarially checks every
``PARALLEL`` verdict at runtime.

:func:`annotate_procedure` rewrites proved loops into
:class:`repro.ir.stmt.ParallelLoop` markers (``PARALLEL DO`` /
``PARALLEL REDUCTION DO``), which ``repro.check`` audits via the
``legal/par-*`` rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.commutativity import (
    ReductionUpdate,
    accumulations_commute,
    match_reduction_update,
)
from repro.analysis.context import context_for_path
from repro.analysis.dependence import Dependence, all_dependences
from repro.analysis.graph import _scalars_written, _upward_exposed_scalars
from repro.ir.expr import Var, free_vars
from repro.ir.pretty import fmt_expr, to_fortran
from repro.ir.stmt import Assign, If, Loop, ParallelLoop, Procedure, Stmt
from repro.ir.visit import NodeTransformer, find_loops, loop_path, walk_stmts
from repro.symbolic.assume import Assumptions

PARALLEL = "parallel"
REDUCTION = "reduction"
SERIAL = "serial"

VERDICTS = (PARALLEL, REDUCTION, SERIAL)


@dataclass(frozen=True)
class LoopVerdict:
    """Classification of one loop, with a witness when SERIAL."""

    loop: Loop
    var: str
    path: tuple[str, ...]  # induction vars, outermost -> this loop
    verdict: str
    reason: str
    witness: Optional[dict] = None
    reductions: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        doc = {
            "loop": self.var,
            "path": "/".join(self.path),
            "verdict": self.verdict,
            "reason": self.reason,
        }
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.reductions:
            doc["reductions"] = list(self.reductions)
        return doc


def loop_carried(dep: Dependence, loop: Loop) -> bool:
    """Can ``dep`` connect two *different* iterations of ``loop``?

    True when the direction entry at ``loop``'s position is ``<``, ``>``
    or ``*`` while every outer entry admits ``=`` (the outer iterations
    can coincide).  ``*`` counts as carried — sound for a parallelism
    proof.
    """
    for j, l in enumerate(dep.loops):
        if l is loop:
            if dep.direction[j] == "=":
                return False
            return all(d in ("=", "*") for d in dep.direction[:j])
    return False


def _stmt_line(stmt: Stmt) -> str:
    text = to_fortran(stmt)
    first = text.splitlines()[0].strip()
    return first


def dependence_witness(dep: Dependence) -> dict:
    """Serializable description of a blocking dependence edge."""
    return {
        "kind": dep.kind.value,
        "array": dep.array,
        "direction": list(dep.direction),
        "distance": [d for d in dep.distance],
        "loops": [l.var for l in dep.loops],
        "source": _stmt_line(dep.source.stmt),
        "sink": _stmt_line(dep.sink.stmt),
    }


def _endpoint_reduction(acc) -> Optional[ReductionUpdate]:
    """The reduction update absorbing one dependence endpoint, if any.

    The endpoint's statement must be ``acc = acc op term`` and the
    referenced occurrence must *be* the accumulator (target or its re-read
    in the value) — a stray read of the same array elsewhere is not
    absorbed.
    """
    red = match_reduction_update(acc.stmt)
    if red is None:
        return None
    if acc.ref != red.target:
        return None
    return red


def _scalar_reduction_ops(loop: Loop, name: str) -> Optional[list[str]]:
    """Accumulation operators if scalar ``name`` is only ever updated as a
    reduction inside ``loop``'s body; None when any other read/write of the
    scalar occurs (a genuine cross-iteration scalar recurrence)."""
    ops: list[str] = []
    for s in walk_stmts(loop):
        if s is loop:
            continue
        if isinstance(s, Assign):
            red = match_reduction_update(s)
            writes_name = isinstance(s.target, Var) and s.target.name == name
            if writes_name:
                if red is None or not (isinstance(red.target, Var) and red.target.name == name):
                    return None
                ops.append(red.op)
                continue
            reads: set[str] = set(free_vars(s.value))
            if not isinstance(s.target, Var):
                for e in s.target.index:
                    reads |= free_vars(e)
            if name in reads:
                return None
        elif isinstance(s, Loop):
            if name in (free_vars(s.lo) | free_vars(s.hi) | free_vars(s.step)):
                return None
        elif isinstance(s, If):
            if name in free_vars(s.cond):
                return None
    return ops


def _ops_commute(ops: Sequence[str]) -> bool:
    return all(
        accumulations_commute(a, b) for i, a in enumerate(ops) for b in ops[i + 1 :]
    ) if len(ops) > 1 else True


def classify_loop(
    proc: Procedure,
    loop: Loop,
    ctx: Optional[Assumptions] = None,
    deps: Optional[Sequence[Dependence]] = None,
) -> LoopVerdict:
    """Classify one loop of ``proc`` (identified by node identity)."""
    ctx = ctx or Assumptions()
    if deps is None:
        # Facts from the loops enclosing this one (triangular bounds like
        # I = K+1..N prove I != K) sharpen the dependence test soundly:
        # they hold whenever the loop executes.
        local = context_for_path(proc, loop, base=ctx)
        deps = all_dependences(proc, local)
    path = tuple(l.var for l in loop_path(proc, loop))
    carried = [d for d in deps if loop_carried(d, loop)]

    # Scalars written in the body and possibly read before being written in
    # an iteration carry values across iterations (unless pure reductions).
    loop_vars = {l.var for l in walk_stmts(loop) if isinstance(l, Loop)}
    hazards = sorted(
        (_scalars_written(loop) & _upward_exposed_scalars(loop)) - loop_vars
    )

    if not carried and not hazards:
        return LoopVerdict(
            loop, loop.var, path, PARALLEL, "no loop-carried dependence"
        )

    # Try to absorb every carried dependence and scalar hazard as a
    # commutative accumulation.
    ops: list[str] = []
    accumulators: list[str] = []
    for dep in carried:
        for endpoint in (dep.source, dep.sink):
            red = _endpoint_reduction(endpoint)
            if red is None:
                return LoopVerdict(
                    loop,
                    loop.var,
                    path,
                    SERIAL,
                    f"loop-carried {dep.kind.value} dependence on {dep.array}",
                    witness=dependence_witness(dep),
                )
            ops.append(red.op)
            accumulators.append(fmt_expr(red.target))
    for name in hazards:
        scalar_ops = _scalar_reduction_ops(loop, name)
        if scalar_ops is None:
            return LoopVerdict(
                loop,
                loop.var,
                path,
                SERIAL,
                f"scalar {name} is written and read across iterations",
                witness={"kind": "scalar", "scalar": name},
            )
        ops.extend(scalar_ops)
        accumulators.append(name)
    if not _ops_commute(ops):
        return LoopVerdict(
            loop,
            loop.var,
            path,
            SERIAL,
            "accumulation operators do not commute with each other",
            witness={"kind": "mixed-ops", "ops": sorted(set(ops))},
        )
    targets = tuple(sorted(set(accumulators)))
    return LoopVerdict(
        loop,
        loop.var,
        path,
        REDUCTION,
        "only commutative accumulation is carried",
        reductions=targets,
    )


def classify_procedure(
    proc: Procedure, ctx: Optional[Assumptions] = None
) -> list[LoopVerdict]:
    """Classify every loop of ``proc``, outermost first."""
    ctx = ctx or Assumptions()
    return [classify_loop(proc, loop, ctx) for loop in find_loops(proc)]


class _Annotator(NodeTransformer):
    """Rewrite loops according to a fresh classification.

    Proved loops become :class:`ParallelLoop` markers; loops whose verdict
    is SERIAL are demoted back to plain :class:`Loop` even if they carried
    a stale marker — annotation is a full re-derivation.
    """

    def __init__(self, marks: dict[int, str]):
        self.marks = marks

    def visit_Loop(self, node: Loop):
        new = self.generic_visit(node)
        kind = self.marks.get(id(node))
        if kind is None:
            if isinstance(new, ParallelLoop):
                return Loop(new.var, new.lo, new.hi, new.body, step=new.step, label=new.label)
            return new
        return ParallelLoop(
            new.var, new.lo, new.hi, new.body, step=new.step, label=new.label, kind=kind
        )

    visit_ParallelLoop = visit_Loop


def annotate_procedure(
    proc: Procedure,
    ctx: Optional[Assumptions] = None,
    loops: Optional[Sequence[str]] = None,
) -> tuple[Procedure, list[LoopVerdict]]:
    """Mark proved loops as ``PARALLEL [REDUCTION] DO``.

    ``loops`` restricts annotation to the named induction variables (all
    proved loops when None).  Returns the rewritten procedure and the full
    verdict list.
    """
    verdicts = classify_procedure(proc, ctx)
    marks: dict[int, str] = {}
    for v in verdicts:
        if v.verdict in (PARALLEL, REDUCTION) and (loops is None or v.var in loops):
            marks[id(v.loop)] = v.verdict
    new = _Annotator(marks).transform_procedure(proc)
    return new, verdicts


def verdict_counts(verdicts: Sequence[LoopVerdict]) -> dict[str, int]:
    counts = {PARALLEL: 0, REDUCTION: 0, SERIAL: 0}
    for v in verdicts:
        counts[v.verdict] += 1
    return counts
