"""Reference collection and subscript decomposition."""

from repro.analysis.refs import collect_accesses, reads_in, writes_in
from repro.analysis.subscripts import analyze_subscript
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import ArrayRef, Compare, Const, Min, Var


class TestCollect:
    def test_read_before_write_in_statement(self):
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0))
        accs = collect_accesses((l,))
        assert [a.is_write for a in accs] == [False, True]
        assert accs[0].position == accs[1].position

    def test_subscript_reads_collected(self):
        # P(I) used as a subscript of A is itself a read
        l = do("I", 1, "N", assign(ref("A", ref("P", "I")), 1.0))
        arrays = [a.array for a in collect_accesses((l,))]
        assert arrays.count("P") == 1
        assert arrays.count("A") == 1

    def test_guards_recorded_with_polarity(self):
        l = do(
            "I", 1, "N",
            if_(
                Compare("gt", ref("B", "I"), Const(0.0)),
                [assign(ref("A", "I"), 1.0)],
                [assign(ref("C", "I"), 1.0)],
            ),
        )
        accs = collect_accesses((l,))
        a = next(x for x in accs if x.array == "A")
        c = next(x for x in accs if x.array == "C")
        assert len(a.guards) == 1
        from repro.ir.expr import Not

        assert isinstance(c.guards[0], Not)

    def test_loop_stack_outermost_first(self):
        nest = do("J", 1, "N", do("I", 1, "M", assign(ref("A", "I", "J"), 0.0)))
        acc = next(iter(collect_accesses((nest,))))
        assert acc.loop_vars == ("J", "I")
        assert acc.innermost().var == "I"

    def test_common_loops_by_identity(self):
        inner1 = do("I", 1, "N", assign(ref("A", "I"), 0.0))
        inner2 = do("I", 1, "N", assign(ref("B", "I"), 0.0))
        outer = do("J", 1, "N", inner1, inner2)
        accs = collect_accesses((outer,))
        a, b = accs[0], accs[1]
        assert [l.var for l in a.common_loops(b)] == ["J"]

    def test_filter_helpers(self):
        l = do("I", 1, "N", assign(ref("A", "I"), ref("B", "I")))
        assert [a.array for a in writes_in((l,))] == ["A"]
        assert [a.array for a in reads_in((l,), "B")] == ["B"]

    def test_bound_refs_not_collected(self):
        l = do("I", 1, ref("LIM", 1), assign(ref("A", "I"), 0.0))
        assert [a.array for a in collect_accesses((l,))] == ["A"]


class TestSubscripts:
    def test_affine_decomposition(self):
        info = analyze_subscript(Var("I") * 2 + Var("N") - 3, ("I", "J"))
        assert info.affine
        assert info.coeffs == (2, 0)
        assert info.rest.coeff("N") == 1
        assert info.rest.const == -3

    def test_classifiers(self):
        assert analyze_subscript(Var("N") + 1, ("I",)).is_constant
        assert analyze_subscript(Var("I") + 1, ("I", "J")).single_index == 0
        assert analyze_subscript(Var("I") + Var("J"), ("I", "J")).single_index is None

    def test_coeff_of(self):
        info = analyze_subscript(Var("J") * 3, ("I", "J"))
        assert info.coeff_of("J") == 3
        assert info.coeff_of("I") == 0
        assert info.coeff_of("Z") == 0

    def test_non_affine_flagged(self):
        info = analyze_subscript(Min((Var("I"), Var("N"))), ("I",))
        assert not info.affine
        info2 = analyze_subscript(ArrayRef("P", (Var("I"),)), ("I",))
        assert not info2.affine
