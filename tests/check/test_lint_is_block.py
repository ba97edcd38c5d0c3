"""One verdict: ``lint_loop`` answers what the ``block`` pass does.

The linter is the verdict the check report, the served job and the docs
give; the ``block`` pass is the procedure that derives the program.  The
invariant holds them to one answer.  The pass's verdict is the rule the
Sec. 5 study has always used: block on dependences alone, and if no strip
loop reaches the innermost position, block again with the Sec. 5.2
commutativity oracle; the report's ``used_commutativity`` separates the
two blockable verdicts.

Every ``block`` here runs checked, and its check must fail exactly when
no strip loop of a target with inner loops reached the innermost
position: the checked pass is judged by the program it produced.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import householder_point_ir
from repro.check import lint_loop
from repro.check.diagnostics import errors_in
from repro.check.linter import BLOCKABLE, BLOCKABLE_WITH_COMMUTATIVITY, NOT_BLOCKABLE
from repro.errors import CheckError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Call, Const, Max, Min, Var
from repro.ir.stmt import ArrayDecl, Loop, Procedure
from repro.ir.visit import loop_by_var, walk_stmts
from repro.pipeline import PassManager, PassSpec, available_workloads
from repro.runtime.codegen import compile_procedure
from repro.runtime.validate import compare_arrays
from repro.symbolic.assume import Assumptions
from tests.properties.test_dependence_oracle import build_expr, deep_nests, nests


def checked_block(proc, options, ctx):
    """Run ``block`` checked: (its span, the error rules its check raised)."""
    mgr = PassManager([PassSpec("block", options)], ctx=ctx, on_infeasible="stop", check=True)
    try:
        return mgr.run(proc).spans[0], set()
    except CheckError as err:
        return err.result.spans[0], {d.rule for d in errors_in(err.diagnostics)}


def block_verdict(proc, var, ctx, commutativity=True):
    """The verdict the ``block`` pass computes for ``DO var``."""
    nested = any(isinstance(s, Loop) for s in walk_stmts(loop_by_var(proc.body, var).body))
    for attempt in (False, True)[: 1 + commutativity]:
        span, refused = checked_block(
            proc, {"loop": var, "factor": "BS", "commutativity": attempt}, ctx)
        if span.status in ("error", "infeasible"):
            return NOT_BLOCKABLE
        blocked = span.artifact.blocked_innermost >= 1
        assert refused == ({"legal/block-carried-recurrence"} if nested and not blocked
                           else set()), (var, attempt, refused)
        if blocked:
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


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(deep_nests())
def test_check_is_block_on_deep_nests(nest):
    """One to three deep, one or two statements a body, strided and
    reversed outer loops: the checked pass refuses exactly what it
    leaves unblocked."""
    block_verdict(as_procedure(nest), "I", Assumptions(), commutativity=False)


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


Z = ref("A", Const(0))

#: One shrunk ``deep_nests()`` draw per family without MIN/MAX bounds on
#: which the two disagree.  The linter carves a cycle that ``block``'s
#: IndexSetSplit finds no inner loop to split (unsound), and it stops at
#: an imperfect nest that ``block`` distributes (conservative).
DEEP_DISAGREE = {
    "carve-without-split": as_procedure(do(
        "I", 1, 2, assign(ref("A", I), Z + Z),
        do("J", 1, I, assign(ref("A", Const(2) * Var("J")), Z + Z),
           assign(ref("A", Const(-1) * Var("J")), Z + Z)))),
    "distributed-imperfect-nest": as_procedure(do(
        "I", 1, 1, do("J", 1, 1, assign(Z, Z + Z),
                      do("L", 1, 1, assign(Z, Z + Z), assign(Z, Z + Z))))),
}


@pytest.mark.xfail(strict=True, reason="the linter and block disagree on deeper nests")
@pytest.mark.parametrize("family", sorted(DEEP_DISAGREE))
def test_deep_nests(family):
    assert_one_verdict(DEEP_DISAGREE[family], "I", Assumptions(), commutativity=False)


def test_checked_block_judges_min_max_nests_by_their_result():
    """The trapezoids block (Sec. 3.2's split), so their check is clean;
    the disjunctive nests leave every strip loop short of innermost, so
    theirs is refused with a reported edge."""
    for family, proc in DISAGREE.items():
        span, refused = checked_block(proc, {"loop": "I", "factor": "BS"}, Assumptions())
        if family.startswith("trapezoidal"):
            assert refused == set() and span.artifact.blocked_innermost >= 1, family
        else:
            assert refused == {"legal/block-carried-recurrence"}, family
            (finding,) = span.detail["check"]
            assert finding["witness"]["kind"] == "anti", family


# ---------------------------------------------------------------------------
# non-unit steps: strip mining needs step 1, so neither blocks
# ---------------------------------------------------------------------------

N, K = Var("N"), Var("K")


@pytest.mark.parametrize("lo, hi, step", [(1, N, 2), (N, 1, -1)], ids=["2", "-1"])
def test_a_non_unit_step_is_not_blockable(lo, hi, step):
    """``DO I = lo, hi, step / DO J = 1, N / A(I,J) = A(I,J) + 1``."""
    a = ref("A", "I", "J")
    proc = Procedure("stepped", ("N",), (ArrayDecl("A", (N, N)),),
                     (do("I", lo, hi, do("J", 1, N, assign(a, a + Const(1.0))), step=step),))
    assert_one_verdict(proc, "I", Assumptions().assume_ge("N", 2))
    assert "step" in lint_loop(proc, "I").reason


# ---------------------------------------------------------------------------
# held-out Cholesky (LAPACK potrf's unblocked forms), both spellings
# ---------------------------------------------------------------------------

J = Var("J")


def _cholesky(name, outer):
    return Procedure(name, ("N",), (ArrayDecl("A", (N, N)),), (outer,))


def _update():
    return assign(ref("A", I, J), ref("A", I, J) - ref("A", I, K) * ref("A", J, K))


def cholesky_right():
    """Right-looking: scale column K, then update the trailing triangle."""
    return _cholesky("potrf_right", do(
        "K", 1, N,
        assign(ref("A", K, K), Call("DSQRT", (ref("A", K, K),))),
        do("I", K + 1, N, assign(ref("A", I, K), ref("A", I, K) / ref("A", K, K))),
        do("J", K + 1, N, do("I", J, N, _update())),
    ))


def cholesky_left():
    """Left-looking: update column J from the columns before it, then scale it."""
    return _cholesky("potrf_left", do(
        "J", 1, N,
        do("K", 1, J - 1, do("I", J, N, _update())),
        assign(ref("A", J, J), Call("DSQRT", (ref("A", J, J),))),
        do("I", J + 1, N, assign(ref("A", I, J), ref("A", I, J) / ref("A", J, J))),
    ))


#: spelling -> (point program, the loop ``block`` blocks)
CHOLESKY = {"right-looking": (cholesky_right, "K"), "left-looking": (cholesky_left, "J")}
CHOLESKY_CTX = Assumptions().assume_ge("N", 1)


@pytest.mark.parametrize("spelling", sorted(CHOLESKY))
def test_checked_block_derives_cholesky_byte_for_byte(spelling):
    build, var = CHOLESKY[spelling]
    point = build()
    result = PassManager([PassSpec("block", {"loop": var, "factor": "KS"})],
                         ctx=CHOLESKY_CTX, check=True).run(point)
    assert errors_in(result.check_diagnostics) == []
    assert result.spans[0].artifact.blocked_innermost >= 1
    run_point, run_blocked = compile_procedure(point), compile_procedure(result.procedure)
    rng = np.random.default_rng(0)
    for n in range(1, 14):
        m = rng.random((n, n))
        spd = m @ m.T + n * np.eye(n)
        want = run_point({"N": n}, arrays={"A": spd})["A"]
        for ks in (1, 2, 3, 4, 5, 7):
            got = run_blocked({"N": n, "KS": ks}, arrays={"A": spd})["A"]
            assert compare_arrays(want, got, "A") is None, (n, ks)


@pytest.mark.xfail(strict=True, reason="the linter finds no inner loop escaping "
                   "Cholesky's cycle; block splits it at the block boundary")
@pytest.mark.parametrize("spelling", sorted(CHOLESKY))
def test_cholesky(spelling):
    build, var = CHOLESKY[spelling]
    assert_one_verdict(build(), var, CHOLESKY_CTX)
