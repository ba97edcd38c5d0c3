"""Dependence graph/recurrences, reuse classification, commutativity."""

import pytest

from repro.analysis.commutativity import (
    ColumnUpdate,
    RowInterchange,
    match_column_update,
    match_row_interchange,
    operations_commute,
)
from repro.analysis.context import context_for_path
from repro.analysis.graph import DependenceGraph
from repro.analysis.refs import RefAccess, collect_accesses
from repro.analysis.reuse import (
    ReuseKind,
    classify_reuse,
    estimate_block_footprint,
    reuse_report,
)
from repro.ir.build import assign, block_do, do, if_, ref
from repro.ir.expr import Const, Min, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import loop_by_var
from repro.lang import choose_factor
from repro.machine.cache import CacheConfig
from repro.machine.model import MachineModel
from repro.symbolic.assume import Assumptions


class TestRecurrences:
    def test_sec33_recurrence_components(self):
        s1 = assign(ref("T", "II"), ref("A", "II"))
        s2 = do("K", "II", "N", assign(ref("A", "K"), ref("A", "K") + ref("T", "II")))
        ii = do("II", "I", Var("I") + Var("IS") - 1, s1, s2)
        proc = Procedure(
            "p", ("N", "IS"),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("T", (Var("N"),))),
            (do("I", 1, "N", ii, step="IS"),),
        )
        g = DependenceGraph(proc)
        comps = g.recurrence_components(ii)
        assert [len(c) for c in comps] == [2]
        assert g.preventing_dependences(ii)

    def test_independent_statements_split(self):
        l = do(
            "I", 1, "N",
            assign(ref("A", "I"), 1.0),
            assign(ref("B", "I"), 2.0),
        )
        g = DependenceGraph((l,))
        comps = g.recurrence_components(l)
        assert [len(c) for c in comps] == [1, 1]

    def test_scalar_flow_edges(self):
        l = do(
            "I", 1, "N",
            assign("T", ref("A", "I")),
            assign(ref("B", "I"), Var("T")),
        )
        g = DependenceGraph((l,))
        sg = g.statement_graph(l)
        scalar_edges = [(u, v) for u, v, d in sg.edges() if "scalar" in d]
        assert (0, 1) in scalar_edges

    def test_self_redefined_scalar_not_exposed(self):
        # A1 is written before read inside the second statement: no edge
        l = do(
            "I", 1, "N",
            assign("A1", ref("A", "I")),
            do("K", 1, "N", assign("A1", ref("B", "K")), assign(ref("C", "K"), Var("A1"))),
        )
        g = DependenceGraph((l,))
        sg = g.statement_graph(l)
        scalar_edges = [(u, v) for u, v, d in sg.edges() if "scalar" in d]
        assert (0, 1) not in scalar_edges

    def test_statement_graph_walks_each_child_once(self, monkeypatch):
        """One walk per direct child per call, however many dependence
        endpoints it must place (it used to re-walk for every one)."""
        import repro.analysis.graph as graph
        from repro.algorithms import lu_point_ir

        proc = lu_point_ir()
        k = loop_by_var(proc, "K")
        g = DependenceGraph(proc, context_for_path(proc, k))
        endpoints = 2 * len(g.relative_deps(k))
        assert endpoints > 2 * len(k.body)
        walked = []
        real = graph.walk_stmts
        monkeypatch.setattr(graph, "walk_stmts", lambda root: walked.append(root) or real(root))
        g.statement_graph(k)
        assert sorted(map(id, walked)) == sorted(map(id, k.body))


class TestContext:
    def test_path_context_ignores_siblings(self):
        a = do("I", 1, 4, assign(ref("A", "I"), 0.0))
        b = do("I", 10, 20, assign(ref("A", "I"), 1.0))
        proc = Procedure("p", (), (ArrayDecl("A", (Const(32),)),), (a, b))
        ctx = context_for_path(proc, b)
        assert ctx.lower_bound("I") == 10
        assert ctx.upper_bound("I") == 20

    def test_mod_lower_bound_stripped(self):
        from repro.ir.expr import Call

        l = do("I", Var("L") + Call("MOD", (Var("N"), Const(4))), "N", assign(ref("A", "I"), 0.0))
        proc = Procedure("p", ("N", "L"), (ArrayDecl("A", (Var("N"),)),), (l,))
        ctx = context_for_path(proc, l, Assumptions().assume_ge("L", 5))
        assert ctx.compare(Var("I"), Var("L")) in (">", ">=")


class TestReuse:
    def vec(self):
        return do("I", 1, "M", assign(ref("A", "I"), ref("A", "I") + ref("B", "J")))

    def test_classification(self):
        accs = collect_accesses((self.vec(),))
        b = next(a for a in accs if a.array == "B")
        a_ref = next(a for a in accs if a.array == "A")
        assert classify_reuse(b, "I") == ReuseKind.TEMPORAL_INVARIANT
        assert classify_reuse(a_ref, "I") == ReuseKind.SPATIAL
        assert classify_reuse(b, "J") == ReuseKind.SPATIAL  # B(J) moves with J... stride 1

    def test_temporal_carried(self):
        l = do("I", 6, "N", assign(ref("A", "I"), ref("A", Var("I") - 5)))
        acc = next(a for a in collect_accesses((l,)) if not a.is_write)
        assert classify_reuse(acc, "I") == ReuseKind.TEMPORAL_CARRIED

    def test_report(self):
        outer = do("J", 1, "N", self.vec())
        rep = reuse_report(outer)
        assert rep.loop_var == "J"
        assert rep.count(ReuseKind.TEMPORAL_INVARIANT) >= 2  # A(I) twice

    def test_footprint_grows_with_block(self):
        outer = do("J", 1, "N", self.vec())
        fp2 = estimate_block_footprint(outer, {"N": 64, "M": 64}, 2)
        fp8 = estimate_block_footprint(outer, {"N": 64, "M": 64}, 8)
        assert fp8 > fp2

    def test_choose_block_factor_monotone_in_cache(self):
        arrays = (ArrayDecl("A", (Var("M"),)), ArrayDecl("B", (Var("N"),)))
        proc = Procedure("p", ("N", "M"), arrays, (block_do("J", 1, "N", self.vec()),))
        small = MachineModel("s", CacheConfig(512, 32, 2))
        big = MachineModel("b", CacheConfig(8192, 32, 2))
        bs = choose_factor(proc, small, {"N": 64, "M": 64})
        bb = choose_factor(proc, big, {"N": 64, "M": 64})
        assert bb > bs >= 2


class TestCommutativityMatchers:
    def swap_loop(self):
        return do(
            "J", 1, "N",
            assign("TAU", ref("A", "K", "J")),
            assign(ref("A", "K", "J"), ref("A", "IMAX", "J")),
            assign(ref("A", "IMAX", "J"), "TAU"),
        )

    def update_nest(self):
        return do(
            "J", Var("K") + 1, "N",
            do("I", Var("K") + 1, "N",
               assign(ref("A", "I", "J"),
                      ref("A", "I", "J") - ref("A", "I", "K") * ref("A", "K", "J"))),
        )

    def test_row_interchange_matched(self):
        got = match_row_interchange(self.swap_loop())
        assert isinstance(got, RowInterchange)
        assert got.row_a == Var("K") and got.row_b == Var("IMAX")

    def test_row_interchange_rejects_wrong_body(self):
        l = do("J", 1, "N", assign(ref("A", "K", "J"), 0.0))
        assert match_row_interchange(l) is None
        # swap whose row index uses J is not a whole-row interchange
        bad = do(
            "J", 1, "N",
            assign("TAU", ref("A", "J", "J")),
            assign(ref("A", "J", "J"), ref("A", "IMAX", "J")),
            assign(ref("A", "IMAX", "J"), "TAU"),
        )
        assert match_row_interchange(bad) is None

    def test_column_update_matched(self):
        got = match_column_update(self.update_nest())
        assert isinstance(got, ColumnUpdate)
        assert got.pivot_row == Var("K")

    def test_column_scale_matched(self):
        scale = do(
            "I", Var("K") + 1, "N",
            assign(ref("A", "I", "K"), ref("A", "I", "K") / ref("A", "K", "K")),
        )
        got = match_column_update(scale)
        assert isinstance(got, ColumnUpdate)

    def test_commutes_only_across_kinds_same_array(self):
        ri = match_row_interchange(self.swap_loop())
        cu = match_column_update(self.update_nest())
        assert operations_commute(ri, cu)
        assert operations_commute(cu, ri)
        assert not operations_commute(ri, ri)
        other = ColumnUpdate("B", Var("K"), self.update_nest())
        assert not operations_commute(ri, other)
