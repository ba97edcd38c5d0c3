"""End-to-end blockability classification.

The classification runs through the pass pipeline
(:mod:`repro.pipeline`): each blocking attempt is one ``block`` pass
under a :class:`~repro.pipeline.manager.PassManager`, which makes every
classification traced, timed, and memoized — repeated classification of
an equal procedure replays from the analysis cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.ir.expr import ExprLike
from repro.ir.stmt import Procedure
from repro.pipeline.manager import PassManager, PassSpec
from repro.symbolic.assume import Assumptions
from repro.transform.blocking import BlockingReport


class Verdict(enum.Enum):
    """The Sec. 5 taxonomy."""

    BLOCKABLE = "blockable"
    BLOCKABLE_WITH_COMMUTATIVITY = "blockable-with-commutativity"
    NOT_BLOCKABLE = "not-blockable"


@dataclass
class BlockabilityResult:
    verdict: Verdict
    procedure: Optional[Procedure]  # the derived block algorithm (when any)
    report: Optional[BlockingReport]
    note: str = ""

    def describe(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        if self.note:
            lines.append(self.note)
        if self.report:
            lines += [f"  {s}" for s in self.report.steps]
        return "\n".join(lines)


def classify(
    proc: Procedure,
    loop_var: str,
    factor: ExprLike,
    ctx: Optional[Assumptions] = None,
    allow_commutativity: bool = True,
    require_innermost: int = 1,
) -> BlockabilityResult:
    """Run the blockability study for one point algorithm.

    ``require_innermost`` is how many strip loops must reach the innermost
    position for the blocking to count (block LU needs the trailing-update
    nest blocked; the panel legitimately stays point).
    """
    base_ctx = ctx.copy() if ctx is not None else Assumptions()

    def attempt(commutativity: bool):
        # string/int factors memoize in the pass cache; Expr factors
        # simply skip memoization (options must stay JSON scalars)
        manager = PassManager(
            [
                PassSpec(
                    "block",
                    {
                        "loop": loop_var,
                        "factor": factor,
                        "commutativity": commutativity,
                    },
                )
            ],
            ctx=base_ctx,
            on_infeasible="stop",
        )
        result = manager.run(proc)
        return result, result.spans[0]

    result, span = attempt(False)
    if span.status in ("error", "infeasible"):
        note = span.error or span.detail.get("reason", "")
        return BlockabilityResult(Verdict.NOT_BLOCKABLE, None, None, note=note)
    report = span.artifact
    if report.blocked_innermost >= require_innermost:
        return BlockabilityResult(Verdict.BLOCKABLE, result.procedure, report)

    if allow_commutativity:
        result2, span2 = attempt(True)
        if span2.status in ("error", "infeasible"):
            note = span2.error or span2.detail.get("reason", "")
            return BlockabilityResult(Verdict.NOT_BLOCKABLE, None, report, note=note)
        report2 = span2.artifact
        if report2.blocked_innermost >= require_innermost and report2.used_commutativity:
            return BlockabilityResult(
                Verdict.BLOCKABLE_WITH_COMMUTATIVITY, result2.procedure, report2
            )
        if report2.blocked_innermost >= require_innermost:
            return BlockabilityResult(Verdict.BLOCKABLE, result2.procedure, report2)

    return BlockabilityResult(
        Verdict.NOT_BLOCKABLE,
        None,
        report,
        note="no strip loop reached the innermost position",
    )
