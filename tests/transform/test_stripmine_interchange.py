"""Strip mining and loop interchange (incl. triangular bound rewrites)."""

import pytest

from repro.errors import TransformError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, IntDiv, Max, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions
from repro.transform.interchange import interchange
from repro.transform.stripmine import strip_mine


def proc_of(*body, arrays=("A",), params=("N",), extra=()):
    decls = tuple(ArrayDecl(a, (Var("N"),) if a != "A2" else (Var("N"), Var("N"))) for a in arrays)
    return Procedure("t", tuple(params) + tuple(extra), decls, tuple(body))


class TestStripMine:
    def test_structure_and_semantics(self, vecadd_proc):
        j = loop_by_var(vecadd_proc.body, "J")
        out, info = strip_mine(vecadd_proc, j, "JS")
        assert info.block_var == "J" and info.strip_var == "JJ"
        outer = loop_by_var(out.body, "J")
        assert outer.step == Var("JS")
        innerj = loop_by_var(out.body, "JJ")
        assert innerj.lo == Var("J")
        assert isinstance(innerj.hi, Min)
        assert "JS" in out.params
        for n in (10, 12):
            assert_equivalent(vecadd_proc, out, {"N": n, "M": 7, "JS": 4})

    def test_constant_factor(self, vecadd_proc):
        j = loop_by_var(vecadd_proc.body, "J")
        out, info = strip_mine(vecadd_proc, j, 3)
        assert info.factor == Const(3)
        assert_equivalent(vecadd_proc, out, {"N": 10, "M": 5})

    def test_rejects_nonunit_step(self):
        p = proc_of(do("I", 1, "N", assign(ref("A", "I"), 0.0), step=2))
        with pytest.raises(TransformError):
            strip_mine(p, loop_by_var(p.body, "I"), 4)

    def test_rejects_bad_factor(self, vecadd_proc):
        j = loop_by_var(vecadd_proc.body, "J")
        with pytest.raises(TransformError):
            strip_mine(vecadd_proc, j, 0)

    def test_fresh_name_collision_avoided(self):
        p = proc_of(
            assign("JJ", 0),
            do("J", 1, "N", assign(ref("A", "J"), Var("JJ") * 1.0)),
        )
        out, info = strip_mine(p, loop_by_var(p.body, "J"), 2)
        assert info.strip_var != "JJ"


class TestRectangularInterchange:
    def test_swap_and_semantics(self, vecadd_proc):
        j = loop_by_var(vecadd_proc.body, "J")
        out = interchange(vecadd_proc, j)
        loops = find_loops(out)
        assert [l.var for l in loops] == ["I", "J"]
        assert_equivalent(vecadd_proc, out, {"N": 6, "M": 9})

    def test_imperfect_nest_rejected(self):
        p = proc_of(
            do("J", 1, "N", assign("X", 0), do("I", 1, "N", assign(ref("A", "I"), 0.0)))
        )
        with pytest.raises(TransformError):
            interchange(p, loop_by_var(p.body, "J"))

    def test_dependence_violation_refused(self):
        # A2(I,J) = A2(I-1,J+1): vector (1,-1) -> interchange illegal
        p = Procedure(
            "t",
            ("N",),
            (ArrayDecl("A2", (Var("N"), Var("N"))),),
            (
                do(
                    "I", 2, Var("N") - 1,
                    do("J", 2, Var("N") - 1,
                       assign(ref("A2", "I", "J"),
                              ref("A2", Var("I") - 1, Var("J") + 1) + 1.0)),
                ),
            ),
        )
        with pytest.raises(TransformError):
            interchange(p, loop_by_var(p.body, "I"))
        # and the safe diagonal direction is accepted
        p_ok = Procedure(
            "t",
            ("N",),
            (ArrayDecl("A2", (Var("N"), Var("N"))),),
            (
                do(
                    "I", 2, Var("N") - 1,
                    do("J", 2, Var("N") - 1,
                       assign(ref("A2", "I", "J"),
                              ref("A2", Var("I") - 1, Var("J") - 1) + 1.0)),
                ),
            ),
        )
        out = interchange(p_ok, loop_by_var(p_ok.body, "I"))
        assert_equivalent(p_ok, out, {"N": 8})


class TestTriangularInterchange:
    def tri_proc(self, lo=None, hi=None):
        inner = do("J", lo if lo is not None else 1, hi if hi is not None else "N",
                   assign(ref("A2", "II", "J"), ref("A2", "II", "J") + 1.0))
        return Procedure(
            "t", ("N", "M"),
            (ArrayDecl("A2", (Var("N"), Var("N"))),),
            (do("II", 1, "M", inner),),
        )

    def test_lower_triangular_formula(self):
        """The paper's Sec. 3.1 case: J from a*II+b with a=1."""
        p = self.tri_proc(lo=Var("II") + 2, hi="N")
        out = interchange(p, loop_by_var(p.body, "II"))
        j = find_loops(out)[0]
        assert j.var == "J"
        assert j.lo == Const(3)  # alpha*outer.lo + beta = 1+2
        ii = find_loops(out)[1]
        assert isinstance(ii.hi, Min)  # MIN((J-beta)/alpha, M)
        assert_equivalent(p, out, {"N": 9, "M": 6})

    def test_upper_triangular(self):
        p = self.tri_proc(lo=1, hi=Var("II") + 1)
        out = interchange(p, loop_by_var(p.body, "II"))
        j = find_loops(out)[0]
        assert j.var == "J"
        ii = find_loops(out)[1]
        assert isinstance(ii.lo, Max)
        assert_equivalent(p, out, {"N": 9, "M": 7})

    def test_alpha_two_uses_intdiv(self):
        p = self.tri_proc(lo=Var("II") * 2, hi="N")
        ctx = Assumptions().assume_ge("M", 1)
        out = interchange(p, loop_by_var(p.body, "II"), ctx)
        ii = find_loops(out)[1]
        assert any(isinstance(e, IntDiv) for e in [ii.hi] + (list(ii.hi.args) if isinstance(ii.hi, Min) else []))
        assert_equivalent(p, out, {"N": 14, "M": 7})

    def test_negative_alpha(self):
        p = self.tri_proc(lo=Var("N") - Var("II"), hi="N")
        out = interchange(p, loop_by_var(p.body, "II"))
        assert_equivalent(p, out, {"N": 9, "M": 5})

    def test_rhomboidal(self):
        p = self.tri_proc(lo=Var("II"), hi=Var("II") + 3)
        out = interchange(p, loop_by_var(p.body, "II"))
        assert_equivalent(p, out, {"N": 12, "M": 8})

    def test_trapezoid_refused_with_hint(self):
        p = self.tri_proc(lo=1, hi=Min((Var("II") + 3, Var("N"))))
        with pytest.raises(TransformError, match="index-set split"):
            interchange(p, loop_by_var(p.body, "II"))
