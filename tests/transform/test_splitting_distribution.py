"""Index-set splitting (all flavours) and loop distribution."""

import pytest

from repro.errors import TransformError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Max, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions
from repro.transform.distribution import ScalarFlowError, distribute
from repro.transform.index_set_split import (
    eliminate_single_trip,
    index_set_split_for_dependence,
    peel_first_iteration,
    split_index_set,
    split_trapezoid,
)


def vec_proc(*body, params=("N",)):
    return Procedure(
        "t", params,
        (ArrayDecl("A", (Var("N"),)), ArrayDecl("B", (Var("N"),))),
        tuple(body),
    )


class TestPlainSplit:
    def test_paper_example(self):
        """The Sec. 3 example: split at iteration 100."""
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + ref("B", "I")))
        p = vec_proc(l)
        out, (first, second) = split_index_set(p, l, 100)
        assert isinstance(first.hi, Min)
        assert isinstance(second.lo, (Max, type(second.lo)))
        for n in (50, 100, 150):
            assert_equivalent(p, out, {"N": n})

    def test_symbolic_point(self):
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") * 2.0))
        p = vec_proc(l, params=("N", "P"))
        out, _ = split_index_set(p, l, Var("P"))
        for pt in (0, 3, 12):
            assert_equivalent(p, out, {"N": 9, "P": pt})

    def test_peel_and_eliminate(self):
        l = do("L", Var("S"), "N", assign(ref("A", "L"), Var("L") * 1.0))
        p = vec_proc(l, params=("N", "S"))
        out, (peel, rest) = split_index_set(p, l, Var("S"))
        ctx = Assumptions().assume_le("S", Var("N")).assume_ge("S", 1)
        peel_live = next(x for x in find_loops(out) if x == peel)
        out2 = eliminate_single_trip(out, peel_live, ctx)
        # the peeled iteration is now straight-line code
        assert len(find_loops(out2)) == 1
        assert_equivalent(p, out2, {"N": 8, "S": 3})

    def test_eliminate_requires_proof(self):
        l = do("L", 1, "N", assign(ref("A", "L"), 0.0))
        p = vec_proc(l)
        with pytest.raises(TransformError):
            eliminate_single_trip(p, l, Assumptions())

    def test_step_must_be_unit(self):
        l = do("I", 1, "N", assign(ref("A", "I"), 0.0), step=2)
        with pytest.raises(TransformError):
            split_index_set(vec_proc(l), l, 4)


class TestTrapezoids:
    def test_min_upper_bound(self):
        """Sec. 3.2: MIN(alpha*I+beta, N1) splits into triangle+rectangle."""
        inner = do("K", 1, Min((Var("I") + 2, Var("N1"))),
                   assign(ref("A", "K"), ref("A", "K") + 1.0))
        outer = do("I", 1, "N", inner)
        p = Procedure("t", ("N", "N1"), (ArrayDecl("A", (Var("N") + 2,)),), (outer,))
        out, (tri, rect) = split_trapezoid(p, outer)
        from repro.analysis.shape import LoopShape, classify_loop_shape

        assert classify_loop_shape(tri.body[0], "I").kind == LoopShape.TRIANGULAR_HI
        assert classify_loop_shape(rect.body[0], "I").kind == LoopShape.RECTANGULAR
        for (n, n1) in ((8, 6), (8, 20), (5, 5)):
            assert_equivalent(p, out, {"N": n, "N1": n1})

    def test_max_lower_bound(self):
        inner = do("K", Max((Var("I") - 3, Const(1))), "N1",
                   assign(ref("A", "K"), ref("A", "K") + 1.0))
        outer = do("I", 1, "N", inner)
        p = Procedure("t", ("N", "N1"), (ArrayDecl("A", (Var("N1"),)),), (outer,))
        out, (rect, coupled) = split_trapezoid(p, outer)
        for (n, n1) in ((9, 7), (4, 12)):
            assert_equivalent(p, out, {"N": n, "N1": n1})

    def test_wrong_shape_rejected(self):
        inner = do("K", 1, "N1", assign(ref("A", "K"), 0.0))
        outer = do("I", 1, "N", inner)
        p = Procedure("t", ("N", "N1"), (ArrayDecl("A", (Var("N1"),)),), (outer,))
        with pytest.raises(TransformError):
            split_trapezoid(p, outer)

    def _steep(self, lo):
        """``DO I = lo, N / DO J = 1, MIN(2*I+5, M)``: the crossover
        ``(M-5)/2`` has a numerator of either sign.  ``A`` has room past
        ``M``, so a piece running too far shows as a byte difference."""
        inner = do("J", 1, Min((Const(2) * Var("I") + 5, Var("M"))),
                   assign(ref("A", "J"), ref("A", "J") + 1.0))
        outer = do("I", lo, "N", inner)
        return Procedure("t", ("N", "M"), (ArrayDecl("A", (Var("M") + 8,)),), (outer,)), outer

    def test_negative_crossover_numerator_is_refused(self):
        """Fortran ``/`` truncates toward zero: at M = 2, ``(2-5)/2`` is -1
        where the floor is -2, so a split there ran I = -1 over J = 1..3,
        past M, and A(3) differed.  Unprovable signs are refused."""
        p, outer = self._steep(-5)
        with pytest.raises(TransformError, match="nonnegative numerator"):
            split_trapezoid(p, outer)

    def test_proved_crossover_numerator_splits(self):
        p, outer = self._steep(1)
        out, _ = split_trapezoid(p, outer, Assumptions().assume_ge("M", 5))
        for n, m in ((3, 5), (3, 8), (9, 6), (4, 20)):
            assert_equivalent(p, out, {"N": n, "M": m})


class TestDistribution:
    def test_independent_split_in_order(self):
        l = do("I", 1, "N",
               assign(ref("A", "I"), 1.0),
               assign(ref("B", "I"), ref("A", "I") + 1.0))
        p = vec_proc(l)
        out, loops = distribute(p, l)
        assert len(loops) == 2
        assert_equivalent(p, out, {"N": 7})

    def test_recurrence_not_split(self):
        # B uses A of a *later* iteration's write? A(I+1) anti...
        l = do("I", 1, Var("N") - 1,
               assign(ref("A", "I"), ref("B", "I") + 1.0),
               assign(ref("B", "I"), ref("A", Var("I") + 1) + 1.0))
        p = vec_proc(l)
        with pytest.raises(TransformError) as err:
            distribute(p, l)
        assert getattr(err.value, "preventing", None)

    def test_scalar_flow_fuses_groups(self):
        # T written in stmt 1, used in stmt 2; A/B otherwise independent
        l = do("I", 1, "N",
               assign("T", ref("A", "I")),
               assign(ref("B", "I"), Var("T") * 2.0))
        p = vec_proc(l)
        with pytest.raises(ScalarFlowError) as err:
            distribute(p, l)
        assert err.value.names == {"T"}

    def test_partition_validation(self):
        s1 = assign(ref("A", "I"), 1.0)
        s2 = assign(ref("B", "I"), 2.0)
        l = do("I", 1, "N", s1, s2)
        p = vec_proc(l)
        out, loops = distribute(p, l, partition=[[s1], [s2]])
        assert len(loops) == 2
        with pytest.raises(TransformError):
            distribute(p, l, partition=[[s1]])  # does not cover the body


class TestIndexSetSplitProcedure:
    def test_sec33_split_point(self):
        """Fig. 3 applied to the Sec. 3.3 recurrence: K splits at the
        boundary between the common and disjoint sections."""
        from repro.analysis.graph import DependenceGraph

        s1 = assign(ref("T", "II"), ref("A", "II"))
        s2 = do("K", "II", "N", assign(ref("A", "K"), ref("A", "K") + ref("T", "II")))
        ii = do("II", "I", Min((Var("I") + Var("IS") - 1, Var("N"))), s1, s2)
        p = Procedure(
            "p", ("N", "IS"),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("T", (Var("N"),))),
            (do("I", 1, "N", ii, step="IS"),),
        )
        ctx = Assumptions().assume_ge("IS", 2).assume_ge("N", 2)
        g = DependenceGraph(p, ctx)
        deps = [d for d in g.preventing_dependences(ii) if d.array == "A"]
        assert deps
        out, reports = index_set_split_for_dependence(p, ii, deps[0], ctx)
        assert reports[0].loop_var == "K"
        # the split point is the strip's last index (possibly clamped by N)
        from repro.ir.pretty import fmt_expr

        assert "I + IS - 1" in fmt_expr(reports[0].point)
        for n, s in ((12, 4), (10, 3), (7, 10)):
            assert_equivalent(p, out, {"N": n, "IS": s})

    def test_identical_sections_refused(self):
        from repro.analysis.graph import DependenceGraph

        l = do("I", 2, "N", assign(ref("A", "I"), ref("A", Var("I") - 1) + 1.0))
        wrap = do("R", 1, 2, l)
        p = vec_proc(wrap)
        g = DependenceGraph(p)
        deps = g.preventing_dependences(wrap)
        if deps:  # the A-recurrence spans the identical section
            with pytest.raises(TransformError):
                index_set_split_for_dependence(p, wrap, deps[0])
