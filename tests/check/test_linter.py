"""The blockability linter must reproduce the Sec. 5 study statically —
no transformation runs, yet the verdicts match the transforming driver."""

import pytest

from repro.algorithms import (
    givens_point_ir,
    householder_point_ir,
    lu_pivot_point_ir,
    lu_point_ir,
)
from repro.check import lint_blockability, lint_loop
from repro.check.linter import (
    BLOCKABLE,
    BLOCKABLE_WITH_COMMUTATIVITY,
    NOT_BLOCKABLE,
)
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline.cache import AnalysisCache, installed
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)
MN = Assumptions().assume_ge("M", 2).assume_le("N", "M")


def test_lu_nopivot_blockable():
    r = lint_loop(lu_point_ir(), "K", ctx=N2)
    assert r.verdict == BLOCKABLE
    assert r.escapes  # names the loops that escape the recurrence


def test_lu_pivot_blockable_with_commutativity():
    r = lint_loop(lu_pivot_point_ir(), "K", ctx=N2)
    assert r.verdict == BLOCKABLE_WITH_COMMUTATIVITY


def test_lu_pivot_not_blockable_without_commutativity():
    r = lint_loop(lu_pivot_point_ir(), "K", ctx=N2,
                  allow_commutativity=False)
    assert r.verdict == NOT_BLOCKABLE
    assert r.preventing  # names a transformation-preventing dependence


def test_householder_not_blockable():
    ctx = MN.assume_ge("N", 2)
    r = lint_loop(householder_point_ir(), "K", ctx=ctx)
    assert r.verdict == NOT_BLOCKABLE


def test_givens_not_blockable():
    # Sec. 5.4: the rotation guard buries DO K inside an IF — the strip
    # loop cannot sink through the imperfect nest
    r = lint_loop(givens_point_ir(), "L", ctx=MN)
    assert r.verdict == NOT_BLOCKABLE


def test_lint_asks_each_direction_query_once(monkeypatch):
    """One lu_pivot verdict issues 210 direction queries, 65 distinct:
    the linter runs under a cache of its own, or the one installed."""
    from repro.analysis import feasibility

    proc, solved = lu_pivot_point_ir(), []
    real = feasibility._direction_feasible_uncached
    monkeypatch.setattr(
        feasibility, "_direction_feasible_uncached",
        lambda *a: solved.append(1) or real(*a))
    alone = lint_blockability(proc, N2)
    assert len(solved) == 65

    shared = AnalysisCache()
    with installed(shared):
        assert lint_blockability(proc, N2) == alone
    direction = shared.stats()["direction"]
    assert (direction["misses"], direction["hits"]) == (65, 145)

    # a cache that can hold one entry per region is as good as none
    del solved[:]
    with installed(AnalysisCache(region_cap=1)):
        assert lint_blockability(proc, N2) == alone
    assert len(solved) > 2 * 65


def test_innermost_loop_is_not_blockable():
    p = Procedure(
        "flat", ("N",), (ArrayDecl("B", (Var("N"),)),),
        (do("I", 1, "N", assign(ref("B", "I"), Const(0))),),
    )
    r = lint_loop(p, "I", ctx=N2)
    assert r.verdict == NOT_BLOCKABLE
    assert "innermost" in r.reason


def test_lint_blockability_covers_every_outer_loop():
    results = lint_blockability(lu_point_ir(), ctx=N2)
    assert [r.loop_var for r in results] == ["K"]
    assert results[0].verdict == BLOCKABLE


def test_diagnostic_mirrors_verdict():
    d = lint_loop(lu_point_ir(), "K", ctx=N2).diagnostic()
    assert d.rule == "lint/blockable"
    assert d.severity.value == "info"
    d = lint_loop(givens_point_ir(), "L", ctx=MN).diagnostic()
    assert d.rule == "lint/not-blockable"
    assert d.severity.value == "warning"


# --- lint/par-* : loop-parallelism classifications ------------------------

def test_lint_parallelism_one_diagnostic_per_loop():
    from repro.check.linter import lint_parallelism
    from repro.ir.visit import find_loops
    from repro.pipeline.workloads import get_workload

    w = get_workload("matmul")
    proc = w.build()
    diags = lint_parallelism(proc, w.context(None))
    assert len(diags) == len(find_loops(proc))
    assert {d.rule for d in diags} <= {
        "lint/par-parallel", "lint/par-reduction", "lint/par-serial"
    }
    assert all(d.severity.value == "info" for d in diags)


def test_lint_parallelism_rules_match_detector_verdicts():
    from repro.check.linter import lint_parallelism
    from repro.par.detect import classify_procedure
    from repro.pipeline.workloads import get_workload

    for name in ("matmul", "lu_nopivot", "conv"):
        w = get_workload(name)
        proc = w.build()
        ctx = w.context(None)
        rules = [d.rule for d in lint_parallelism(proc, ctx)]
        verdicts = [f"lint/par-{v.verdict}"
                    for v in classify_procedure(proc, ctx)]
        assert rules == verdicts, name


def test_lint_par_serial_names_the_witness_edge():
    from repro.check.linter import lint_parallelism
    from repro.pipeline.workloads import get_workload

    w = get_workload("lu_nopivot")
    diags = lint_parallelism(w.build(), w.context(None))
    serial = [d for d in diags if d.rule == "lint/par-serial"]
    assert serial
    assert any("witness" in d.message and "direction" in d.message
               for d in serial)


def test_par_rules_in_catalogue():
    from repro.check.diagnostics import RULES

    for rule in ("legal/par-carried-dep", "legal/par-reduction-shape",
                 "lint/par-parallel", "lint/par-reduction",
                 "lint/par-serial"):
        assert rule in RULES
        assert RULES[rule].summary
