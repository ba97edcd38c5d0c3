"""Unroll-and-jam, scalar replacement/expansion, IF-inspection."""

import numpy as np
import pytest

from repro.errors import TransformError
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Call, Compare, Const, Min, Var
from repro.ir.stmt import ArrayDecl, Assign, If, Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var, walk_stmts
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions
from repro.transform.if_inspection import guarded_distribute_with_inspection, if_inspect
from repro.transform.scalars import scalar_expand, scalar_replace
from repro.transform.unroll_jam import triangular_unroll_jam, unroll_and_jam


def mat_proc(*body, params=("N", "M")):
    return Procedure(
        "t", params,
        (ArrayDecl("A", (Var("N"), Var("N"))), ArrayDecl("B", (Var("N"),))),
        tuple(body),
    )


class TestUnrollAndJam:
    def nest(self):
        return do(
            "J", 1, "N",
            do("I", 1, "N",
               assign(ref("A", "I", "J"), ref("A", "I", "J") + ref("B", "I"))),
        )

    def test_pre_loop_plus_jammed_main(self):
        p = mat_proc(self.nest())
        j = loop_by_var(p.body, "J")
        out = unroll_and_jam(p, j, 3)
        js = [l for l in find_loops(out) if l.var == "J"]
        assert len(js) == 2  # pre-loop + main
        assert js[1].step == Const(3)
        # the inner I loop is fused: one I loop with 3 statements
        main_inner = [l for l in find_loops(js[1]) if l.var == "I"]
        assert len(main_inner) == 1
        assert len(main_inner[0].body) == 3
        for n in (7, 9, 3, 2):
            assert_equivalent(p, out, {"N": n, "M": 4})

    def test_factor_validation(self):
        p = mat_proc(self.nest())
        with pytest.raises(TransformError):
            unroll_and_jam(p, loop_by_var(p.body, "J"), 1)

    def test_dependence_violation_refused(self):
        # A(I,J) = A(I+1,J-1): jam by 2 would reverse the dependence
        nest = do(
            "J", 2, Var("N") - 1,
            do("I", 2, Var("N") - 1,
               assign(ref("A", "I", "J"), ref("A", Var("I") + 1, Var("J") - 1) + 1.0)),
        )
        p = mat_proc(nest)
        with pytest.raises(TransformError):
            unroll_and_jam(p, loop_by_var(p.body, "J"), 2)

    def test_flat_body_unrolls(self):
        l = do("J", 1, "N", assign(ref("B", "J"), Var("J") * 1.0))
        p = mat_proc(l)
        out = unroll_and_jam(p, loop_by_var(p.body, "J"), 4)
        assert_equivalent(p, out, {"N": 10, "M": 2})


class TestTriangularUJ:
    def test_lower_triangular(self):
        nest = do(
            "I", 1, "N",
            do("J", "I", "N", assign(ref("A", "J", "I"), ref("A", "J", "I") + 1.0)),
        )
        p = mat_proc(nest)
        out = triangular_unroll_jam(p, loop_by_var(p.body, "I"), 2)
        for n in (8, 9, 5):
            assert_equivalent(p, out, {"N": n, "M": 2})

    def test_upper_triangular(self):
        nest = do(
            "I", 1, "N",
            do("J", 1, "I", assign(ref("A", "J", "I"), ref("A", "J", "I") + 1.0)),
        )
        p = mat_proc(nest)
        out = triangular_unroll_jam(p, loop_by_var(p.body, "I"), 3)
        for n in (9, 7):
            assert_equivalent(p, out, {"N": n, "M": 2})

    def test_rhomboidal_band(self):
        nest = do(
            "I", 1, "N",
            do("J", "I", Var("I") + 4,
               assign(ref("B", "J"), ref("B", "J") + 1.0)),
        )
        p = Procedure("t", ("N",), (ArrayDecl("B", (Var("N") + 4,)),), (nest,))
        ctx = Assumptions()
        out = triangular_unroll_jam(p, loop_by_var(p.body, "I"), 3, ctx)
        for n in (9, 10, 4):
            assert_equivalent(p, out, {"N": n})

    def test_narrow_band_refused(self):
        nest = do(
            "I", 1, "N",
            do("J", "I", Var("I") + 1, assign(ref("B", "J"), ref("B", "J") + 1.0)),
        )
        p = Procedure("t", ("N",), (ArrayDecl("B", (Var("N") + 1,)),), (nest,))
        with pytest.raises(TransformError, match="band width"):
            triangular_unroll_jam(p, loop_by_var(p.body, "I"), 4)


class TestScalarReplacement:
    def test_invariant_hoisted_with_store_back(self):
        # B(J) invariant: loaded once; A(J,J) read+write invariant: load+store
        nest = do(
            "J", 1, "N",
            do("I", 1, "N",
               assign(ref("A", "J", "J"), ref("A", "J", "J") + ref("B", "J") + ref("A", "I", "J") * 0.0)),
        )
        p = mat_proc(nest)
        # A(J,J) aliases A(I,J) at I == J: replacement must be refused
        out, reports = scalar_replace(p)
        inner = loop_by_var(out.body, "I")
        body_text = repr(inner)
        assert "A" in body_text  # A(J,J) not replaced (aliases A(I,J))

    def test_safe_invariant_replaced(self):
        nest = do(
            "J", 1, "N",
            do("I", 1, "N",
               assign(ref("A", "I", "J"), ref("A", "I", "J") + ref("B", "J"))),
        )
        p = mat_proc(nest)
        out, reports = scalar_replace(p)
        assert reports and ("B", (Var("J"),)) in reports[0].replaced
        # the hoisted load sits between the J and I loops
        j = loop_by_var(out.body, "J")
        assert isinstance(j.body[0], Assign) and j.body[0].target == Var("B0")
        assert_equivalent(p, out, {"N": 6, "M": 2})

    def test_loop_independent_collapse(self):
        # the unroll-and-jam accumulator pattern: two A(I,J) updates per
        # iteration collapse into one load + one store
        nest = do(
            "J", 1, "N",
            do("I", 1, "N",
               assign(ref("A", "I", "J"), ref("A", "I", "J") + 1.0),
               assign(ref("A", "I", "J"), ref("A", "I", "J") * 2.0)),
        )
        p = mat_proc(nest)
        out, reports = scalar_replace(p)
        assert reports
        inner = loop_by_var(out.body, "I")
        loads = sum(
            1
            for s in walk_stmts(inner.body)
            if isinstance(s, Assign) and s.target == Var("A0")
        )
        assert loads >= 1
        assert_equivalent(p, out, {"N": 5, "M": 2})

    def test_guarded_access_not_hoisted(self):
        nest = do(
            "J", 1, "N",
            do("I", 1, "N",
               if_(ref("A", "I", "J").gt(0.0), [assign(ref("B", "J"), 1.0)])),
        )
        p = mat_proc(nest)
        out, reports = scalar_replace(p)
        assert not any(("B", (Var("J"),)) in r.replaced for r in reports)

    def test_subscript_through_an_assigned_scalar_stays_in_memory(self):
        # K = I moves A(K) every iteration: hoisting its load above DO I
        # would read A(K) before K is set, and collapsing it to one load at
        # the body top would read it before the assignment
        nest = do(
            "J", 1, "N",
            do("I", 1, "N",
               assign("K", Var("I")),
               assign(ref("A", "K"), ref("A", "K") + 1.0)),
        )
        p = Procedure("t", ("N",), (ArrayDecl("A", (Var("N"),)),), (nest,))
        out, reports = scalar_replace(p)
        assert (out, reports) == (p, [])
        assert_equivalent(p, out, {"N": 5})

    @pytest.mark.xfail(strict=True, raises=IndexError, reason=(
        "open: an invariant load is hoisted above a loop that may run no "
        "trip, so it touches A(N+1), which the point program never does"))
    def test_a_zero_trip_loop_hoists_no_load(self):
        nest = do(
            "I", 1, "N",
            do("J", Var("I") + 1, "N",
               assign(ref("B", "J"), ref("B", "J") + ref("A", Var("I") + 1))),
        )
        p = Procedure("t", ("N",), (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),))),
                      (nest,))
        out, _ = scalar_replace(p)
        assert_equivalent(p, out, {"N": 5})

    def test_twin_loops_are_left_alone(self):
        # two structurally equal innermost loops are both left as they are
        twin = do("I", 1, "N", assign(ref("A", "I", "J"), ref("A", "I", "J") + ref("B", "J")))
        p = mat_proc(do("J", 1, "N", twin, twin))
        assert scalar_replace(p) == (p, [])
        # a third, different inner loop between them is still replaced
        other = do("I", 1, "N", assign(ref("A", "I", "J"), ref("A", "I", "J") * ref("B", "J")))
        p = mat_proc(do("J", 1, "N", twin, other, twin))
        out, reports = scalar_replace(p)
        body = loop_by_var(out.body, "J").body
        assert len(reports) == 1 and (body[0], body[-1]) == (twin, twin)
        assert_equivalent(p, out, {"N": 6, "M": 2})


class TestScalarExpansion:
    def test_expansion_semantics(self):
        l = do(
            "J", 1, "N",
            assign("C", ref("B", "J") * 2.0),
            assign(ref("A", "J", "J"), Var("C")),
        )
        p = mat_proc(l)
        out = scalar_expand(p, l, ("C",))
        assert "C" in out.array_names
        assert_equivalent(p, out, {"N": 5, "M": 2})

    def test_extent_must_be_parametric(self):
        outer = do("K", 1, "N", do("J", 1, Var("K"), assign("C", 1.0), assign(ref("B", "J"), Var("C"))))
        p = mat_proc(outer)
        j = loop_by_var(p.body, "J")
        with pytest.raises(TransformError):
            scalar_expand(p, j, ("C",))
        # explicit extent fixes it
        out = scalar_expand(p, j, ("C",), extent=Var("N"))
        assert_equivalent(p, out, {"N": 5, "M": 2})


class TestIfInspection:
    def guarded(self):
        return do(
            "K", 1, "N",
            if_(
                Compare("ne", ref("B", "K"), Const(0.0)),
                [do("I", 1, "N", assign(ref("A", "I", "K"), ref("A", "I", "K") + ref("B", "K")))],
            ),
        )

    def test_inspector_executor_semantics(self):
        p = mat_proc(self.guarded())
        k = loop_by_var(p.body, "K")
        out, executor = if_inspect(p, k)
        assert {a.name for a in out.arrays} >= {"KLB", "KUB"}
        b = np.zeros(9)
        b[[1, 2, 3, 7]] = 1.0
        assert_equivalent(p, out, {"N": 9, "M": 2}, arrays={"B": b})
        # all-true and all-false edge cases
        assert_equivalent(p, out, {"N": 5, "M": 2}, arrays={"B": np.ones(5)})
        assert_equivalent(p, out, {"N": 5, "M": 2}, arrays={"B": np.zeros(5)})

    def test_guard_instability_refused(self):
        # the body writes the guard element itself
        l = do(
            "K", 1, "N",
            if_(
                Compare("ne", ref("B", "K"), Const(0.0)),
                [assign(ref("B", "K"), Const(0.0))],
            ),
        )
        p = mat_proc(l)
        with pytest.raises(TransformError):
            if_inspect(p, loop_by_var(p.body, "K"))

    def test_shape_requirements(self):
        l = do("K", 1, "N", assign(ref("B", "K"), 0.0))
        p = mat_proc(l)
        with pytest.raises(TransformError):
            if_inspect(p, loop_by_var(p.body, "K"))

    def test_guarded_distribution_with_inspection(self):
        """The Givens pattern: part 1 zeroes the guard operand, part 2
        replays recorded ranges."""
        l = do(
            "J", 1, "N",
            if_(
                Compare("ne", ref("B", "J"), Const(0.0)),
                [
                    assign(ref("B", "J"), Const(0.0)),
                    do("I", 1, "M", assign(ref("A", "I", "J"), ref("A", "I", "J") + 1.0)),
                ],
            ),
        )
        p = Procedure(
            "t", ("N", "M"),
            (ArrayDecl("A", (Var("M"), Var("N"))), ArrayDecl("B", (Var("N"),))),
            (l,),
        )
        out, executor = guarded_distribute_with_inspection(p, l, split_at=1)
        b = np.zeros(8)
        b[[0, 3, 4, 7]] = 2.0
        assert_equivalent(p, out, {"N": 8, "M": 3}, arrays={"B": b})
