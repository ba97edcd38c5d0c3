"""One verdict: ``lint_loop`` answers what the ``block`` pass does.

The linter is the verdict the check report, the served job and the docs
give; the ``block`` pass is the procedure that derives the program.  The
invariant holds them to one answer.  The pass's verdict is the rule the
Sec. 5 study has always used: block on dependences alone, and if no strip
loop reaches the innermost position, block again with the Sec. 5.2
commutativity oracle; the report's ``used_commutativity`` separates the
two blockable verdicts.
"""

import pytest
from hypothesis import given, settings

from repro.algorithms import householder_point_ir
from repro.check import lint_loop
from repro.check.linter import BLOCKABLE, BLOCKABLE_WITH_COMMUTATIVITY, NOT_BLOCKABLE
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Max, Min, Var
from repro.ir.stmt import ArrayDecl, Loop, Procedure
from repro.pipeline import PassManager, PassSpec, available_workloads
from repro.symbolic.assume import Assumptions
from tests.properties.test_dependence_oracle import build_expr, nests


def block_verdict(proc, var, ctx, commutativity=True):
    """The verdict the ``block`` pass computes for ``DO var``."""
    for attempt in (False, True)[: 1 + commutativity]:
        spec = PassSpec("block", {"loop": var, "factor": "BS", "commutativity": attempt})
        span = PassManager([spec], ctx=ctx, on_infeasible="stop").run(proc).spans[0]
        if span.status in ("error", "infeasible"):
            return NOT_BLOCKABLE
        if span.artifact.blocked_innermost >= 1:
            return BLOCKABLE_WITH_COMMUTATIVITY if span.artifact.used_commutativity else BLOCKABLE
    return NOT_BLOCKABLE


def assert_one_verdict(proc, var, ctx, commutativity=True):
    lint = lint_loop(proc, var, ctx, allow_commutativity=commutativity).verdict
    assert lint == block_verdict(proc, var, ctx, commutativity), (var, lint)


HOUSEHOLDER = Assumptions().assume_ge("M", 2).assume_ge("N", 2).assume_le("N", "M")
PROGRAMS = [(w.name, w.build, w.context) for w in available_workloads()] + [
    ("householder", householder_point_ir, lambda: HOUSEHOLDER)
]


@pytest.mark.parametrize("commutativity", [False, True])
@pytest.mark.parametrize("name,build,context", PROGRAMS, ids=[p[0] for p in PROGRAMS])
def test_every_outermost_loop_of_the_study(name, build, context, commutativity):
    proc = build()
    for loop in proc.body:
        if isinstance(loop, Loop):
            assert_one_verdict(proc, loop.var, context(), commutativity)


# ---------------------------------------------------------------------------
# DO I of the dependence oracle's random two-deep nests
# ---------------------------------------------------------------------------

def as_procedure(nest):
    return Procedure("nest", (), (ArrayDecl("A", (Const(64),)),), (nest,))


@pytest.mark.parametrize("shapes", [("rectangular",), ("triangular-lo", "triangular-hi"),
                                    ("rhomboidal",)], ids=["rectangular", "triangular",
                                                           "rhomboidal"])
def test_do_i_of_random_nests(shapes):
    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(nests(shapes=shapes))
    def agree(case):
        assert_one_verdict(as_procedure(case[0]), "I", Assumptions())

    agree()


def shrunk(n, lo, hi):
    """``DO I = 1, n / DO J = lo, hi / A(0) = A(0) + A(0)``, as drawn."""
    a = ref("A", build_expr(0, 0, 0))
    return as_procedure(do("I", 1, n, do("J", lo, hi, assign(a, a + a))))


I = Var("I")

#: One shrunk nest per MIN/MAX family on which the two disagree.  In the
#: conjunctive trapezoids the linter says not-blockable where ``block``
#: splits the trapezoid and blocks a piece; in the disjunctive ones it
#: says blockable where ``block`` gets no strip innermost — the unsound
#: direction.
DISAGREE = {
    "trapezoidal-min": shrunk(2, Const(1), Min((I + 1, Const(2)))),
    "trapezoidal-max": shrunk(2, Max((I - 1, Const(1))), Const(2)),
    "min-lower": shrunk(1, Min((I, Const(2))), Const(1)),
    "max-upper": shrunk(1, Const(1), Max((I, Const(-1)))),
}


@pytest.mark.xfail(strict=True, reason="the linter and block disagree on MIN/MAX bounds")
@pytest.mark.parametrize("family", sorted(DISAGREE))
def test_min_max_nests(family):
    assert_one_verdict(DISAGREE[family], "I", Assumptions())
