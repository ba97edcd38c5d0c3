"""Dependence testing: classic cases plus the paper's own examples."""

from repro.analysis.dependence import DependenceKind, all_dependences, dependences_between
from repro.analysis.refs import collect_accesses
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.symbolic.assume import Assumptions


def deps_of(body, **kw):
    return all_dependences(body, **kw)


def find(deps, kind=None, array=None):
    out = deps
    if kind:
        out = [d for d in out if d.kind == kind]
    if array:
        out = [d for d in out if d.array == array]
    return out


class TestStrongSIV:
    def test_carried_flow_with_distance(self):
        # A(I) = A(I-5) + ...: flow distance 5 (the Sec. 2.2 example)
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", Var("I") - 5) + 1.0))
        deps = find(deps_of((l,)), DependenceKind.FLOW, "A")
        assert len(deps) == 1
        assert deps[0].distance == (5,)
        assert deps[0].direction == ("<",)
        assert deps[0].carrier.var == "I"

    def test_distance_exceeding_trip_count_refuted(self):
        l = do("I", 1, 4, assign(ref("A", "I"), ref("A", Var("I") - 5) + 1.0))
        assert not find(deps_of((l,)), DependenceKind.FLOW, "A")

    def test_trip_count_refutes_only_within_one_range(self):
        # DO I = 1,2 / DO J = I,I / A(J+1) = A(J): the J loop has one trip,
        # yet the write at (1,1) feeds the read at (2,2) at J-distance 1 —
        # the inner range moves with I (found by the Sec. 3 shapes oracle)
        inner = do("J", Var("I"), Var("I"), assign(ref("A", Var("J") + 1), ref("A", "J") + 1.0))
        deps = find(deps_of((do("I", 1, 2, inner),)), DependenceKind.FLOW, "A")
        assert [d.distance for d in deps] == [(None, 1)]
        # ... while with I pinned (the distribution view) it is refuted
        accs = collect_accesses((do("I", 1, 2, inner),))
        assert not dependences_between(accs[0], accs[1], within=accs[0].loops[1])

    def test_loop_independent_antidependence(self):
        # A(I) = A(I) + 1: read happens before write in the same iteration
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0))
        deps = find(deps_of((l,)), DependenceKind.ANTI, "A")
        assert len(deps) == 1
        assert deps[0].loop_independent

    def test_constant_offset_independence(self):
        # A(2I) and A(2I+1): even vs odd elements (GCD refutes)
        l = do(
            "I",
            1,
            "N",
            assign(ref("A", Var("I") * 2), ref("A", Var("I") * 2 + 1) + 1.0),
        )
        assert not find(deps_of((l,)), DependenceKind.FLOW, "A")
        assert not find(deps_of((l,)), DependenceKind.ANTI, "A")


class TestZIVAndSymbolic:
    def test_distinct_constants_independent(self):
        body = (assign(ref("A", 1), 1.0), assign(ref("A", 2), 2.0))
        assert not deps_of(body)

    def test_same_constant_dependent(self):
        body = (assign(ref("A", 1), 1.0), assign(ref("A", 1), 2.0))
        deps = find(deps_of(body), DependenceKind.OUTPUT)
        assert len(deps) == 1

    def test_symbolic_offset_refuted_with_context(self):
        # A(K) vs A(K+OFF) with OFF >= 1 proven
        body = (assign(ref("A", "K"), 1.0), assign(ref("A", Var("K") + Var("OFF")), 2.0))
        ctx = Assumptions().assume_ge("OFF", 1)
        assert not deps_of(body, ctx=ctx)
        assert deps_of(body)  # without the fact: conservative dependence


class TestUnconstrainedLoops:
    def test_loop_not_in_subscript_gets_star(self):
        # A(I) inside a J loop: any J distance can re-touch the element
        nest = do("J", 1, "N", do("I", 1, "M", assign(ref("A", "I"), ref("A", "I") + ref("B", "J"))))
        flows = find(deps_of((nest,)), DependenceKind.FLOW, "A")
        assert flows, "flow dep on A must exist"
        assert any(d.direction[0] == "*" for d in flows)

    def test_input_deps_only_on_request(self):
        nest = do("I", 1, "N", assign(ref("A", "I"), ref("B", "I") + ref("B", "I")))
        assert not find(deps_of((nest,)), DependenceKind.INPUT)
        got = find(deps_of((nest,), include_input=True), DependenceKind.INPUT, "B")
        assert got


class TestPaperSec33:
    """The Sec. 3.3 recurrence: distance abstractions must report it."""

    def setup_method(self):
        s1 = assign(ref("T", "II"), ref("A", "II"))
        s2 = do("K", "II", "N", assign(ref("A", "K"), ref("A", "K") + ref("T", "II")))
        self.ii = do("II", "I", Var("I") + Var("IS") - 1, s1, s2)
        self.proc = Procedure(
            "p",
            ("N", "IS"),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("T", (Var("N"),))),
            (do("I", 1, "N", self.ii, step="IS"),),
        )

    def test_backward_flow_reported(self):
        deps = deps_of(self.proc)
        back = [
            d
            for d in find(deps, DependenceKind.FLOW, "A")
            if d.source.ref.index == (Var("K"),) and d.sink.ref.index == (Var("II"),)
        ]
        assert back, "the blocking-preventing recurrence must be visible"

    def test_range_refutation_after_split_relative_to_ii(self):
        # K restricted to I+IS..N makes the sections disjoint *within one
        # iteration of I* — which is the question distribution of II asks.
        # (Across different I iterations the elements genuinely can
        # collide, so the full-nest dependence must remain.)
        s1 = assign(ref("T", "II"), ref("A", "II"))
        s2 = do(
            "K",
            Var("I") + Var("IS"),
            "N",
            assign(ref("A", "K"), ref("A", "K") + ref("T", "II")),
        )
        ii = do("II", "I", Var("I") + Var("IS") - 1, s1, s2)
        proc = self.proc.with_body((do("I", 1, "N", ii, step="IS"),))
        accs = [a for a in collect_accesses(proc) if a.array == "A"]
        a_ii = next(a for a in accs if a.ref.index == (Var("II"),))
        a_k = next(a for a in accs if a.ref.index == (Var("K"),) and a.is_write)
        ctx = Assumptions().assume_ge("IS", 1)
        rel = dependences_between(a_k, a_ii, ctx=ctx, within=ii)
        assert not rel, "relative to II, the split sections are disjoint"
        assert dependences_between(a_k, a_ii, ctx=ctx), "full-nest dep remains"


class TestOrientation:
    def test_source_executes_first_textually(self):
        body = (assign(ref("A", "K"), 1.0), assign("X", ref("A", "K")))
        l = do("K", 1, "N", *body)
        flows = find(deps_of((l,)), DependenceKind.FLOW, "A")
        assert flows and flows[0].source.is_write

    def test_negative_leading_distance_is_flipped(self):
        # write A(I), read A(I+3): the read at iteration i touches what the
        # write touches at iteration i+3 -> anti dep, distance 3
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", Var("I") + 3)))
        deps = find(deps_of((l,)), DependenceKind.ANTI, "A")
        assert len(deps) == 1
        assert deps[0].distance == (3,)

    def test_describe_is_printable(self):
        l = do("I", 1, "N", assign(ref("A", "I"), ref("A", Var("I") - 1)))
        for d in deps_of((l,)):
            assert "dep on A" in d.describe()


class TestWithin:
    def test_relative_view_truncates_outer_loops(self):
        inner = do("I", 1, "M", assign(ref("A", "I"), ref("A", "I") + 1.0))
        nest = do("J", 1, "N", inner)
        accs = [a for a in collect_accesses((nest,)) if a.array == "A"]
        full = dependences_between(accs[0], accs[1])
        rel = dependences_between(accs[0], accs[1], within=inner)
        assert all(len(d.direction) == 2 for d in full)
        assert all(len(d.direction) == 1 for d in rel)
