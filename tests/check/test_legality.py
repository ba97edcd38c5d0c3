"""Mutation tests for the transformation-legality predicates: each
seeded illegal transform must be flagged with its ``legal/*`` rule,
and the paper's legal derivation steps must stay silent."""

import pytest

from repro.algorithms import lu_point_ir
from repro.check import postcheck, precheck
from repro.check.diagnostics import Severity
from repro.check.legality import precheck_for_pipeline
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline.manager import run_passes
from repro.symbolic.assume import Assumptions


def proc_of(*body, arrays=None, params=("N",)):
    arrays = arrays or (ArrayDecl("A", (Var("N"), Var("N"))),
                        ArrayDecl("B", (Var("N"),)))
    return Procedure("p", params, tuple(arrays), tuple(body))


def rules_of(diags):
    return {d.rule for d in diags}


N2 = Assumptions().assume_ge("N", 2)


# --- interchange: the (<, >) direction-vector rule -----------------------

def skewed_nest():
    """A(I,J) = A(I-1,J+1): the dependence is (<, >) — interchanging
    I and J reverses it."""
    return proc_of(
        do("I", 2, "N",
           do("J", 1, Var("N") - Const(1),
              assign(ref("A", "I", "J"),
                     ref("A", Var("I") - Const(1), Var("J") + Const(1))
                     + Const(1))))
    )


def clean_nest():
    """A(I,J) = A(I-1,J-1): direction (<, <) — interchange is legal."""
    return proc_of(
        do("I", 2, "N",
           do("J", 2, "N",
              assign(ref("A", "I", "J"),
                     ref("A", Var("I") - Const(1), Var("J") - Const(1))
                     + Const(1))))
    )


def test_interchange_across_lt_gt_dependence_flagged():
    diags = precheck("interchange", skewed_nest(), N2, {"loop": "I"})
    assert "legal/interchange-direction" in rules_of(diags)
    assert all(d.severity == Severity.ERROR for d in diags)


def test_legal_interchange_is_silent():
    assert precheck("interchange", clean_nest(), N2, {"loop": "I"}) == []


def test_interchange_bounds_written_in_nest():
    p = proc_of(
        do("I", 1, "N",
           do("J", 1, Var("M"),
              assign(Var("M"), Var("J") + Const(1)),
              assign(ref("A", "I", "J"), Const(0)))),
    )
    diags = precheck("interchange", p, N2, {"loop": "I"})
    assert "legal/interchange-bounds" in rules_of(diags)


# --- jam: same rule, and the pipeline demotion ---------------------------

def test_jam_carried_race_flagged():
    diags = precheck("jam", skewed_nest(), N2, {"loop": "I"})
    assert "legal/jam-carried-race" in rules_of(diags)
    assert all(d.severity == Severity.ERROR for d in diags)


def test_jam_demoted_to_warning_for_pipeline():
    diags = precheck_for_pipeline("jam", skewed_nest(), N2, {"loop": "I"})
    assert "legal/jam-carried-race" in rules_of(diags)
    assert all(d.severity == Severity.WARNING for d in diags)


def test_jam_precheck_judges_every_loop_the_pass_would_jam_past():
    """A(I,J,K) = A(I-1,J,K+1) is (<, =, >): the sole inner loop J is no
    obstacle, but jamming I's copies inside K reverses the edge — the
    transform refuses the nest, and the precheck says where."""
    arrays = (ArrayDecl("A", (Var("N"), Var("N"), Var("N"))),)
    p = proc_of(
        do("I", 2, "N",
           do("J", 1, "N",
              do("K", 1, Var("N") - Const(1),
                 assign(ref("A", "I", "J", "K"),
                        ref("A", Var("I") - Const(1), "J", Var("K") + Const(1))
                        + Const(1))))),
        arrays=arrays,
    )
    diags = precheck("jam", p, N2, {"loop": "I"})
    assert [(d.rule, d.path) for d in diags] == [
        ("legal/jam-carried-race", "p/DO I/DO K")]
    assert diags[0].witness["direction"] == ["<", "*", ">"]
    span = run_passes(p, [("jam", {"loop": "I"})], ctx=N2).spans[0]
    assert span.detail["skipped"] == ["rectangular"]


# --- stripmine / block ---------------------------------------------------

def test_stripmine_nonunit_step_flagged():
    p = proc_of(do("I", 1, "N", assign(ref("B", "I"), Const(0)), step=2))
    assert "legal/stripmine-step" in rules_of(
        precheck("stripmine", p, N2, {"loop": "I"}))


def test_one_unit_step_text():
    """The transform, the ``stripmine``/``block`` pass precheck, the
    ``legal/stripmine-step`` check and the linter give one reason."""
    from repro.check.linter import lint_loop
    from repro.errors import TransformError
    from repro.transform.stripmine import strip_mine

    p = proc_of(do("I", 1, "N", assign(ref("B", "I"), Const(0)), step=2))
    loop = p.body[0]
    want = "DO I has step 2; strip mining needs step 1"
    with pytest.raises(TransformError) as err:
        strip_mine(p, loop, 4)
    texts = {str(err.value), lint_loop(p, loop, N2).reason}
    for name in ("stripmine", "block"):
        (d,) = precheck(name, p, N2, {"loop": "I"})
        span = run_passes(p, [(name, {"loop": "I"})], ctx=N2).spans[0]
        assert span.status == "infeasible"
        texts |= {d.message, span.detail["reason"]}
    assert texts == {want}


def test_stripmine_bad_factor_flagged():
    p = proc_of(do("I", 1, "N", assign(ref("B", "I"), Const(0))))
    assert "legal/stripmine-factor" in rules_of(
        precheck("stripmine", p, N2, {"loop": "I", "factor": 0}))


def test_block_lu_with_split_budget_is_legal():
    diags = precheck("block", lu_point_ir(), N2,
                     {"loop": "K", "factor": "KS"})
    assert diags == []


def test_block_over_carried_recurrence_without_split_flagged():
    """``block`` is judged on its result: with no split budget no strip
    loop of LU's DO K reaches the innermost position."""
    options = {"loop": "K", "factor": "KS", "max_splits": 0}
    assert precheck("block", lu_point_ir(), N2, options) == []
    after = run_passes(lu_point_ir(), [("block", options)], ctx=N2).procedure
    diags = postcheck("block", lu_point_ir(), after, N2, options)
    assert "legal/block-carried-recurrence" in rules_of(diags)
    assert all(d.severity == Severity.ERROR for d in diags)


# --- distribute: the Allen–Kennedy postcondition -------------------------

def recurrence_pair():
    s1 = assign(ref("A", "I"), ref("B", Var("I") - Const(1)) + Const(1))
    s2 = assign(ref("B", "I"), ref("A", Var("I") - Const(1)) + Const(1))
    arrays = (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),)))
    before = proc_of(do("I", 2, "N", s1, s2), arrays=arrays)
    broken = proc_of(do("I", 2, "N", s1), do("I", 2, "N", s2), arrays=arrays)
    return before, broken


def test_distribution_through_cycle_flagged():
    before, broken = recurrence_pair()
    diags = postcheck("distribute", before, broken, N2, {"loop": "I"})
    assert "legal/distribution-cycle" in rules_of(diags)


def test_distribution_of_independent_statements_is_silent():
    s1 = assign(ref("A", "I"), Const(1))
    s2 = assign(ref("B", "I"), Const(2))
    arrays = (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),)))
    before = proc_of(do("I", 1, "N", s1, s2), arrays=arrays)
    after = proc_of(do("I", 1, "N", s1), do("I", 1, "N", s2), arrays=arrays)
    assert postcheck("distribute", before, after, N2, {"loop": "I"}) == []


# --- split: pieces must partition the range ------------------------------

def one_loop(lo, hi):
    return do("I", lo, hi, assign(ref("B", "I"), Const(0)))


def test_split_with_gap_flagged():
    before = proc_of(one_loop(1, 10))
    after = proc_of(one_loop(1, 5), one_loop(7, 10))  # 6 is lost
    diags = postcheck("split", before, after, Assumptions(), {"loop": "I"})
    assert "legal/split-partition" in rules_of(diags)


def test_split_with_overlap_flagged():
    before = proc_of(one_loop(1, 10))
    after = proc_of(one_loop(1, 6), one_loop(6, 10))  # 6 runs twice
    diags = postcheck("split", before, after, Assumptions(), {"loop": "I"})
    assert "legal/split-partition" in rules_of(diags)


def test_exact_split_is_silent():
    before = proc_of(one_loop(1, 10))
    after = proc_of(one_loop(1, 5), one_loop(6, 10))
    assert postcheck("split", before, after, Assumptions(),
                     {"loop": "I"}) == []


def test_preexisting_adjacent_loops_are_not_pieces():
    """Two same-variable loops that were already adjacent in the input
    (conv's init + compute idiom) must not be mistaken for split pieces."""
    before = proc_of(one_loop(1, 5), one_loop(7, 10))
    after = proc_of(one_loop(1, 5), one_loop(7, 10))
    assert postcheck("split", before, after, Assumptions(),
                     {"loop": "I"}) == []


def test_unprovable_symbolic_meet_is_silent():
    """MIN/MAX trapezoid bounds the context cannot order stay silent —
    only *provable* overlap or gap is an error."""
    before = proc_of(one_loop(1, "N"))
    after = proc_of(
        one_loop(1, Var("M")), one_loop(Var("K"), "N"),
        params=("N", "M", "K"),
    )
    assert postcheck("split", before, after, Assumptions(),
                     {"loop": "I"}) == []


# --- if_inspection -------------------------------------------------------

def test_if_inspection_needs_guarded_body():
    p = proc_of(do("I", 1, "N", assign(ref("B", "I"), Const(0))))
    assert "legal/if-inspection-shape" in rules_of(
        precheck("if_inspection", p, N2, {"loop": "I"}))


def test_if_inspection_guarded_body_is_silent():
    p = proc_of(
        do("I", 1, "N",
           if_(Compare("ne", ref("B", "I"), Const(0)),
               assign(ref("B", "I"), Const(0))))
    )
    assert precheck("if_inspection", p, N2, {"loop": "I"}) == []


# --- parallelize: the PARALLEL [REDUCTION] DO marker audit ----------------

from repro.ir.build import parallel_do  # noqa: E402


def test_wrong_parallel_marker_flagged():
    p = proc_of(parallel_do("I", 2, "N",
                            assign(ref("B", "I"),
                                   ref("B", Var("I") - Const(1)) + Const(1))))
    diags = precheck("parallelize", p, N2, {})
    assert "legal/par-carried-dep" in rules_of(diags)
    assert all(d.severity == Severity.ERROR for d in diags)


def test_correct_parallel_marker_is_silent():
    p = proc_of(parallel_do("I", 1, "N",
                            assign(ref("B", "I"), ref("B", "I") + Const(1))))
    assert precheck("parallelize", p, N2, {}) == []


def test_parallel_marker_over_scalar_recurrence_flagged():
    p = proc_of(parallel_do("I", 1, "N",
                            assign(ref("B", "I"), Var("T")),
                            assign("T", ref("B", "I") + Const(1))))
    diags = precheck("parallelize", p, N2, {})
    assert "legal/par-carried-dep" in rules_of(diags)


def test_reduction_marker_on_true_accumulation_is_silent():
    p = proc_of(parallel_do("I", 1, "N",
                            assign(ref("B", Const(1)),
                                   ref("B", Const(1)) + ref("A", "I", "I")),
                            kind="reduction"))
    assert precheck("parallelize", p, N2, {}) == []


def test_reduction_marker_over_non_accumulation_flagged():
    # B(1) = I is not acc = acc op term
    p = proc_of(parallel_do("I", 1, "N",
                            assign(ref("B", Const(1)), Var("I") + Const(0)),
                            kind="reduction"))
    diags = precheck("parallelize", p, N2, {})
    assert "legal/par-reduction-shape" in rules_of(diags)


def test_reduction_marker_with_mixed_operators_flagged():
    p = proc_of(
        assign("S", Const(0)),
        parallel_do("I", 1, "N",
                    assign("S", Var("S") + ref("B", "I")),
                    assign("S", Var("S") * Const(2)),
                    kind="reduction"),
    )
    diags = precheck("parallelize", p, N2, {})
    assert "legal/par-reduction-shape" in rules_of(diags)


def test_reduction_marker_over_a_prefix_sum_flagged():
    """S = S + A(I); B(I) = S is a prefix sum: every update is an
    accumulation, but B(I) reads S between them, so the detector says
    SERIAL, and the audit reports the detector's scalar witness."""
    from repro.frontend import parse_procedure

    p = parse_procedure("""
        SUBROUTINE P(N)
          REAL A(N), B(N)
          S = 0.0
          PARALLEL REDUCTION DO I = 1, N
            S = S + A(I)
            B(I) = S
          ENDDO
        END
    """)
    diags = precheck("parallelize", p, N2, {})
    assert [(d.rule, d.path) for d in diags] == [
        ("legal/par-reduction-shape", "P/PARALLEL REDUCTION DO I")]
    assert diags[0].witness == {"kind": "scalar", "scalar": "S"}


def test_parallelize_postcheck_audits_planted_markers():
    before = proc_of(do("I", 2, "N",
                        assign(ref("B", "I"),
                               ref("B", Var("I") - Const(1)) + Const(1))))
    after = proc_of(parallel_do("I", 2, "N",
                                assign(ref("B", "I"),
                                       ref("B", Var("I") - Const(1))
                                       + Const(1))))
    diags = postcheck("parallelize", before, after, N2, {})
    assert "legal/par-carried-dep" in rules_of(diags)


def test_parallelize_postcheck_of_real_annotation_is_silent():
    from repro.par.detect import annotate_procedure
    from repro.pipeline.workloads import get_workload

    for name in ("matmul", "conv", "givens"):
        w = get_workload(name)
        proc = w.build()
        ctx = w.context(None)
        marked, _ = annotate_procedure(proc, ctx)
        assert postcheck("parallelize", proc, marked, ctx, {}) == [], name
