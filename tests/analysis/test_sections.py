"""Bounded regular section analysis."""

from repro.analysis.refs import collect_accesses
from repro.analysis.sections import (
    Section,
    Triplet,
    expr_range,
    ranges_for_loops,
    section_equal,
    section_intersect,
    section_of_ref,
    section_union_hull,
)
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import loop_by_var
from repro.symbolic.assume import Assumptions


class TestExprRange:
    def test_simple_variable(self):
        lo, hi = expr_range(Var("I"), {"I": (Const(1), Var("N"))})
        assert (lo, hi) == (Const(1), Var("N"))

    def test_negative_coefficient_swaps(self):
        lo, hi = expr_range(Const(10) - Var("I"), {"I": (Const(1), Const(4))})
        assert (lo, hi) == (Const(6), Const(9))

    def test_chained_ranges_inner_first(self):
        # K in [II, N], II in [I, I+IS-1]: K spans [I, N]
        ranges = {"K": (Var("II"), Var("N")), "II": (Var("I"), Var("I") + Var("IS") - 1)}
        lo, hi = expr_range(Var("K"), ranges)
        assert lo == Var("I")
        assert hi == Var("N")

    def test_min_bound_propagates(self):
        ranges = {"J": (Const(1), Min((Var("I"), Var("N"))))}
        lo, hi = expr_range(Var("J"), ranges)
        assert isinstance(hi, Min)

    def test_unanalyzable_returns_none(self):
        from repro.ir.expr import ArrayRef

        assert expr_range(ArrayRef("P", (Var("I"),)), {"I": (Const(1), Const(3))}) is None


class TestSectionOfRef:
    def make(self):
        """The Sec. 5.1 strip-mined LU skeleton."""
        kk_hi = Min((Var("K") + Var("KS") - 1, Var("N") - 1))
        scale = do(
            "I", Var("KK") + 1, "N",
            assign(ref("A", "I", "KK"), ref("A", "I", "KK") / ref("A", "KK", "KK")),
        )
        update = do(
            "J", Var("KK") + 1, "N",
            do("I", Var("KK") + 1, "N",
               assign(ref("A", "I", "J"),
                      ref("A", "I", "J") - ref("A", "I", "KK") * ref("A", "KK", "J"))),
        )
        kk = do("KK", "K", kk_hi, scale, update)
        proc = Procedure(
            "lu", ("N", "KS"), (ArrayDecl("A", (Var("N"), Var("N"))),),
            (do("K", 1, Var("N") - 1, kk, step="KS"),),
        )
        return proc, kk

    def test_figure5_sections(self):
        """Figure 5: stmt 20 touches the panel, stmt 10 the trailing part."""
        proc, kk = self.make()
        ctx = Assumptions().assume_ge("KS", 2).assume_ge("K", 1)
        accs = collect_accesses(proc)
        scale_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("KK")))
        upd_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("J")))
        s20 = section_of_ref(scale_w, kk, ctx)
        s10 = section_of_ref(upd_w, kk, ctx)
        # rows: both K+1..N
        assert s20.dims[0].lo == Var("K") + 1
        assert s10.dims[0].lo == Var("K") + 1
        # columns: panel vs K+1..N
        assert s20.dims[1].lo == Var("K")
        assert s10.dims[1].hi == Var("N")
        inter = section_intersect(s20, s10, ctx)
        union = section_union_hull(s20, s10, ctx)
        assert section_equal(inter, union, ctx) is not True

    def test_region_defaults_to_whole_stack(self):
        proc, kk = self.make()
        accs = collect_accesses(proc)
        upd_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("J")))
        s = section_of_ref(upd_w)  # over K too
        assert s.dims[1].hi == Var("N")

    def test_pretty(self):
        s = Section("A", (Triplet(Const(1), Var("N")), Triplet(Var("K"), Var("K"))))
        assert s.pretty() == "A(1:N, K:K)"

    def test_stride_recorded(self):
        l = do("I", 1, "N", assign(ref("A", Var("I") * 2), 0.0))
        acc = next(a for a in collect_accesses((l,)) if a.is_write)
        s = section_of_ref(acc)
        assert s.dims[0].step == Const(2)


class TestAlgebra:
    def setup_method(self):
        self.ctx = Assumptions().assume_ge("KS", 2).assume_le(
            Var("K") + Var("KS"), Var("N")
        ).assume_ge("K", 1)

    def tri(self, lo, hi):
        return Section("A", (Triplet(lo, hi),))

    def test_intersect_union_hull(self):
        a = self.tri(Var("K"), Var("K") + Var("KS") - 1)
        b = self.tri(Var("K") + 1, Var("N"))
        inter = section_intersect(a, b, self.ctx)
        union = section_union_hull(a, b, self.ctx)
        assert inter.dims[0].lo == Var("K") + 1
        assert inter.dims[0].hi == Var("K") + Var("KS") - 1
        assert union.dims[0].lo == Var("K")
        assert union.dims[0].hi == Var("N")

    def test_equal(self):
        a = self.tri(Var("K"), Var("N"))
        assert section_equal(a, a, self.ctx) is True
        assert section_equal(a, self.tri(Var("K") + 1, Var("N")), self.ctx) is False
