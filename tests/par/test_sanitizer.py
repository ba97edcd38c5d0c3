"""The dynamic race sanitizer: shadow footprints, conflict kinds, and the
static-vs-dynamic property across every registry workload."""

from __future__ import annotations

import pytest

from repro.errors import SemanticsError
from repro.ir.build import assign, do, if_, parallel_do, ref
from repro.ir.expr import Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.par.detect import PARALLEL, annotate_procedure, classify_procedure
from repro.par.sanitizer import CONFLICT_RULE, sanitize
from repro.pipeline.workloads import available_workloads, get_workload
from repro.runtime.interpreter import execute
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)
SIZES = {"N": 8}


def proc_of(*body):
    return Procedure(
        "p", ("N",),
        (ArrayDecl("A", (Var("N"), Var("N"))), ArrayDecl("B", (Var("N"),))),
        tuple(body),
    )


class TestConflictKinds:
    def test_flow_conflict_detected(self):
        # B(I) = B(I-1) + 1 mis-marked PARALLEL: iteration I reads what
        # iteration I-1 wrote
        p = proc_of(parallel_do("I", 2, "N",
                                assign(ref("B", "I"),
                                       ref("B", Var("I") - Const(1))
                                       + Const(1.0))))
        r = sanitize(p, SIZES)
        assert not r.clean
        kinds = {c.kind for c in r.conflicts}
        assert "flow" in kinds
        c = r.conflicts[0]
        assert c.loop == "I"
        assert c.array == "B"
        assert c.rule == CONFLICT_RULE
        assert c.iter_a != c.iter_b

    def test_anti_conflict_detected(self):
        # B(I) = B(I+1): iteration I reads what iteration I+1 overwrites
        p = proc_of(parallel_do("I", 1, Var("N") - Const(1),
                                assign(ref("B", "I"),
                                       ref("B", Var("I") + Const(1))
                                       + Const(1.0))))
        r = sanitize(p, SIZES)
        assert any(c.kind == "anti" for c in r.conflicts)

    def test_output_conflict_detected(self):
        # every iteration writes B(1)
        p = proc_of(parallel_do("I", 1, "N",
                                assign(ref("B", Const(1)), Var("I") + Const(0.0))))
        r = sanitize(p, SIZES)
        assert any(c.kind == "output" for c in r.conflicts)

    def test_structured_diagnostic_fields(self):
        p = proc_of(parallel_do("I", 2, "N",
                                assign(ref("B", "I"),
                                       ref("B", Var("I") - Const(1))
                                       + Const(1.0))))
        (c, *_) = sanitize(p, SIZES).conflicts
        doc = c.to_dict()
        assert doc["rule"] == CONFLICT_RULE
        assert doc["array"] == "B"
        assert len(doc["iterations"]) == 2
        assert doc["stmt_a"] and doc["stmt_b"]
        assert "B(" in c.describe()

    def test_a_load_in_an_if_condition_is_charged_to_the_if(self):
        # iteration I reads A(I+1) in the condition; iteration I+1 then
        # writes A(I+1): the read belongs to the IF line, not to the
        # assignment that ran just before it
        p = proc_of(parallel_do("I", 1, Var("N") - Const(1),
                                assign(ref("B", "I"), Const(2.0)),
                                if_(Compare("gt", ref("A", Var("I") + Const(1), 1),
                                            Const(0.0)),
                                    assign(ref("A", "I", 1), ref("B", "I")))))
        anti = [c for c in sanitize(p, SIZES).conflicts if c.kind == "anti"]
        assert anti
        assert {(c.stmt_a, c.stmt_b) for c in anti} == {
            ("IF (A(I + 1, 1) .GT. 0.0) THEN", "A(I, 1) = B(I)")}

    def test_a_clean_run_renders_no_statement(self, monkeypatch):
        from repro.par import sanitizer

        rendered = []
        monkeypatch.setattr(sanitizer, "fmt_stmt",
                            lambda s: rendered.append(s) or "")
        w = get_workload("matmul")
        marked, _ = annotate_procedure(w.build(), w.context(None))
        r = sanitize(marked, dict(w.verify_sizes), seed=0)
        assert r.clean and r.loops_checked
        assert rendered == []


class TestExemptionsAndScope:
    def test_clean_parallel_loop_is_clean(self):
        p = proc_of(parallel_do("I", 1, "N",
                                assign(ref("B", "I"),
                                       ref("B", "I") + Const(1.0))))
        r = sanitize(p, SIZES)
        assert r.clean
        assert r.loops_checked == 1

    def test_reduction_markers_are_exempt(self):
        # a reduction loop conflicts on its accumulator by construction
        p = proc_of(assign("S", Const(0.0)),
                    parallel_do("I", 1, "N",
                                assign("S", Var("S") + ref("B", "I")),
                                kind="reduction"))
        r = sanitize(p, SIZES)
        assert r.clean
        assert r.loops_checked == 0

    def test_unmarked_loops_are_not_monitored(self):
        p = proc_of(do("I", 2, "N",
                       assign(ref("B", "I"),
                              ref("B", Var("I") - Const(1)) + Const(1.0))))
        r = sanitize(p, SIZES)
        assert r.clean
        assert r.loops_checked == 0

    def test_same_iteration_reuse_is_not_a_conflict(self):
        p = proc_of(parallel_do("I", 1, "N",
                                assign(ref("B", "I"), ref("B", "I") + Const(1.0)),
                                assign(ref("B", "I"), ref("B", "I") * Const(2.0))))
        assert sanitize(p, SIZES).clean

    def test_execution_matches_plain_interpreter(self):
        w = get_workload("matmul")
        marked, _ = annotate_procedure(w.build(), w.context(None))
        r = sanitize(marked, dict(w.verify_sizes), seed=0)
        plain = execute(w.build(), dict(w.verify_sizes), seed=0)
        for a in w.build().arrays:
            assert r.env[a.name].tobytes() == plain[a.name].tobytes()

    def test_max_conflicts_bounds_the_report(self):
        p = proc_of(parallel_do("I", 1, "N",
                                assign(ref("B", Const(1)), Var("I") + Const(0.0)),
                                assign(ref("B", Const(2)), Var("I") + Const(0.0)),
                                assign(ref("B", Const(3)), Var("I") + Const(0.0))))
        r = sanitize(p, SIZES, max_conflicts=2)
        assert len(r.conflicts) == 2


class TestLoopSemanticsAreTheInterpreters:
    """The sanitizer observes ``PARALLEL DO``; the interpreter executes it."""

    def test_zero_step_raises_the_interpreters_error(self):
        p = proc_of(parallel_do("I", 1, "N", assign(ref("B", "I"), Const(0.0)),
                                step=0))
        for run in (sanitize, execute):
            with pytest.raises(SemanticsError, match="^loop I: zero step$"):
                run(p, SIZES)

    def test_negative_step_runs_and_is_monitored(self):
        # B(I) = B(I+1) + 1 downward from N-1: each trip reads what the
        # previous (higher) trip wrote
        p = proc_of(parallel_do("I", Var("N") - Const(1), 1,
                                assign(ref("B", "I"),
                                       ref("B", Var("I") + Const(1))
                                       + Const(1.0)),
                                step=-1))
        r = sanitize(p, SIZES, seed=3)
        plain = execute(p, SIZES, seed=3)
        assert r.env["B"].tobytes() == plain["B"].tobytes()
        assert r.env["I"] == plain["I"] == 1
        flows = [c for c in r.conflicts if c.kind == "flow"]
        assert [(c.iter_a, c.iter_b) for c in flows] == [
            (i + 1, i) for i in range(6, 0, -1)
        ]

    def test_bound_loads_belong_to_no_iteration(self):
        # the upper bound loads B(1) once, before the first trip; trip 2's
        # write of B(1) therefore conflicts with nothing
        p = proc_of(parallel_do("I", 2, ref("B", Const(1)) + Const(2),
                                assign(ref("B", Var("I") - Const(1)),
                                       Const(5.0))))
        r = sanitize(p, SIZES)
        assert r.clean
        assert r.env["I"] == 2

    def test_sanitizer_holds_no_loop_semantics(self):
        import ast
        import inspect

        from repro.par.sanitizer import RaceSanitizer

        nodes = list(ast.walk(ast.parse(inspect.getsource(RaceSanitizer))))
        assert not [n for n in nodes if isinstance(n, ast.While)]
        attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert not attrs & {"lo", "hi", "step"}
        # it observes accesses as the interpreter's tracer, not by copying
        # the interpreter's loads and stores
        assert not {"_load", "_store"} & set(vars(RaceSanitizer))


class TestStaticVsDynamicProperty:
    """Satellite property: the two layers agree on every registry workload
    and both catch the same injected defect with matching rule ids."""

    def test_every_static_parallel_verdict_survives_the_sanitizer(self):
        for w in available_workloads():
            marked, verdicts = annotate_procedure(w.build(), w.context(None))
            r = sanitize(marked, dict(w.verify_sizes), seed=0)
            assert r.clean, (w.name, [c.describe() for c in r.conflicts])
            proved = sum(1 for v in verdicts if v.verdict == PARALLEL)
            assert r.loops_checked == proved

    def test_injected_carried_write_caught_by_both_layers(self):
        # mutate conv: make the statically-PARALLEL outer loop I write
        # F3(I-1) as well — a loop-carried output/flow hazard
        from repro.check.legality import postcheck
        from repro.ir.stmt import ParallelLoop
        from repro.ir.visit import walk_stmts

        w = get_workload("conv")
        proc = w.build()
        ctx = w.context(None)
        vs = {v.var: v.verdict for v in classify_procedure(proc, ctx)}
        assert vs["I"] == PARALLEL  # precondition: the seed loop is proved

        marked, _ = annotate_procedure(proc, ctx)
        (outer,) = [s for s in marked.body if isinstance(s, ParallelLoop)]
        # every iteration writes F3(1) a non-accumulation value: a carried
        # output dependence the detector cannot absorb as a reduction
        bad_stmt = assign(ref("F3", Const(1)), Var("I") + Const(0.0))
        mutated_loop = ParallelLoop(
            outer.var, outer.lo, outer.hi, outer.body + (bad_stmt,),
            step=outer.step, kind="parallel",
        )
        mutated = Procedure(
            marked.name, marked.params, marked.arrays,
            tuple(mutated_loop if s is outer else s for s in marked.body),
        )

        # static layer: the marker audit asks the detector, which calls
        # the loop SERIAL, and flags the stale PARALLEL marker
        diags = postcheck("parallelize", proc, mutated, ctx, {})
        assert CONFLICT_RULE in {d.rule for d in diags}

        # dynamic layer: the sanitizer observes the same race at runtime,
        # under the same rule id
        r = sanitize(mutated, dict(w.verify_sizes), seed=0)
        assert not r.clean
        assert {c.rule for c in r.conflicts} == {CONFLICT_RULE}
        assert any(c.loop == "I" and c.array == "F3" for c in r.conflicts)

        # and the fresh detector itself refuses to re-prove the loop
        fresh = {v.var: v.verdict
                 for v in classify_procedure(mutated, ctx)}
        assert fresh["I"] == "serial"
