"""Assumption contexts: bound derivation and sign decisions."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.analysis.sections import expr_range
from repro.ir.expr import Const, Min, Var
from repro.serve.store import canonical_key, facts_component, key_digest
from repro.symbolic import assume
from repro.symbolic.assume import Assumptions
from repro.symbolic.simplify import _EMPTY, prove_lt
from tests.conftest import assert_canonical


class TestBasicFacts:
    def test_range_gives_bounds(self):
        ctx = Assumptions().assume_range("N", 1, 100)
        assert ctx.lower_bound("N") == 1
        assert ctx.upper_bound("N") == 100

    def test_is_nonneg_three_valued(self):
        ctx = Assumptions().assume_ge("KS", 1)
        assert ctx.is_nonneg(Var("KS") - 1) is True
        assert ctx.is_nonneg(-Var("KS")) is False
        assert ctx.is_nonneg(Var("KS") - 5) is None

    def test_is_zero(self):
        ctx = Assumptions()
        assert ctx.is_zero(Var("I") - Var("I")) is True
        assert ctx.is_zero(Var("I") - Var("J")) is None
        ctx2 = Assumptions().assume_range("D", 0, 0)
        assert ctx2.is_zero(Var("D")) is True


class TestChainedBounds:
    def test_transitive_substitution(self):
        # K <= N - KS and KS >= 2  =>  K + KS - 1 < N
        ctx = (
            Assumptions()
            .assume_ge("KS", 2)
            .assume_le("K", Var("N") - Var("KS"))
            .assume_ge("K", 1)
        )
        assert ctx.compare(Var("K") + Var("KS") - 1, Var("N")) == "<"

    def test_relational_fact_stored_both_ways(self):
        # I >= KK + 1 also bounds KK above by I - 1
        ctx = Assumptions().assume_ge("I", Var("KK") + 1).assume_le("I", Var("N"))
        assert ctx.compare(Var("KK"), Var("N")) == "<"

    def test_cycle_terminates(self):
        ctx = Assumptions().assume_le("A", Var("B")).assume_le("B", Var("A"))
        # consistent but unresolvable to constants; must not hang
        assert ctx.compare(Var("A"), Var("C")) is None


class TestCompare:
    def test_constant_difference(self):
        ctx = Assumptions()
        assert ctx.compare(Var("K") + 1, Var("K")) == ">"
        assert ctx.compare(Var("K"), Var("K")) == "=="
        assert ctx.compare(Var("K") - 2, Var("K")) == "<"

    def test_unknown_is_none(self):
        assert Assumptions().compare(Var("A"), Var("B")) is None

    def test_non_affine_is_none(self):
        assert Assumptions().compare(Min((Var("A"), Var("B"))), Var("A")) is None

    def test_implies_helpers(self):
        ctx = Assumptions().assume_ge("N", 5)
        assert ctx.implies_le(5, Var("N"))
        assert not ctx.implies_le(6, Var("N"))

    def test_copy_isolated(self):
        ctx = Assumptions().assume_ge("N", 1)
        ctx2 = ctx.copy().assume_ge("N", 10)
        assert ctx.lower_bound("N") == 1
        assert ctx2.lower_bound("N") == 10


class TestRationalFacts:
    """A coefficient other than ±1 is the one place a ``Fraction`` is born
    (``_add_fact`` divides by it).  Answers, ``facts_key()`` and the store
    key text are pinned from the all-``Fraction`` parent (a5cd79e)."""

    @staticmethod
    def ctx() -> Assumptions:
        ctx = Assumptions().assume_le(Var("I") * 2, Var("N"))  # 2*I <= N
        ctx.assume_ge(Var("J") * 3, Var("N") + 1)  # 3*J >= N + 1
        return ctx.assume_range("N", 4, 10)

    def test_bounds_and_comparisons(self):
        ctx = self.ctx()
        assert repr(ctx.bounds_of("I")) == "((), (1/2*N,))"
        assert repr(ctx.bounds_of("J")) == "((1/3*N + 1/3,), ())"
        assert repr(ctx.bounds_of("N")) == "((2*I, 4), (3*J + -1, 10))"
        assert ctx.upper_bound(Var("I")) == 5
        assert ctx.lower_bound(Var("J")) == Fraction(5, 3)
        assert ctx.upper_bound(Var("I") * 2) == 10
        assert ctx.lower_bound(Var("J") * 3 - Var("N")) == 1
        assert [ctx.compare(Var("I"), 5), ctx.compare(Var("I"), 6)] == ["<=", "<"]
        assert [ctx.compare(Var("J"), 1), ctx.compare(Var("J"), Fraction(5, 3))] == [">", ">="]
        assert ctx.compare(Var("I") * 2, Var("N")) == "<="

    def test_every_stored_bound_is_canonical(self):
        # 2*I <= 4*N + 2: the division by 2 gives I <= 2*N + 1, ints again
        ctx = self.ctx().assume_le(Var("I") * 2, Var("N") * 4 + 2)
        assert repr(ctx.bounds_of("I")[1]) == "(1/2*N, 2*N + 1)"
        for name in "IJN":
            for bound in sum(ctx.bounds_of(name), ()):
                assert_canonical(bound)

    def test_facts_key_and_store_key_text_did_not_move(self):
        ctx, q = self.ctx(), Fraction
        parent = (
            (("J", (((("N", q(1, 3)),), q(1, 3)),)),
             ("N", (((), q(4, 1)), ((("I", q(2, 1)),), q(0, 1))))),
            (("I", (((("N", q(1, 2)),), q(0, 1)),)),
             ("N", (((), q(10, 1)), ((("J", q(3, 1)),), q(-1, 1))))),
        )
        assert ctx.facts_key() == parent and hash(ctx.facts_key()) == hash(parent)
        assert canonical_key(facts_component(ctx)) == canonical_key(parent) == (
            "('t', ('t', ('t', 'J', ('t', ('t', ('t', ('t', 'N', ('q', 1, 3))), "
            "('q', 1, 3)))), ('t', 'N', ('t', ('t', ('t',), ('q', 4, 1)), ('t', "
            "('t', ('t', 'I', ('q', 2, 1))), ('q', 0, 1))))), ('t', ('t', 'I', "
            "('t', ('t', ('t', ('t', 'N', ('q', 1, 2))), ('q', 0, 1)))), ('t', 'N', "
            "('t', ('t', ('t',), ('q', 10, 1)), ('t', ('t', ('t', 'J', ('q', 3, 1))), "
            "('q', -1, 1))))))"
        )
        assert key_digest(("ctx", facts_component(ctx))) == (
            "07e4f661f01fb4e438fa90130525ee5ac09883b6c950504fbdc9919b3c5f026f"
        )


class TestMemo:
    """Each context answers a question once; the answers must be the ones
    a context rebuilt from the same facts would give."""

    def test_answered_once_until_the_facts_change(self, monkeypatch):
        roots = []
        real = Assumptions._const_bounds

        def counting(self, aff, want_upper, depth, seen):
            if not seen:
                roots.append((aff, want_upper))
            return real(self, aff, want_upper, depth, seen)

        monkeypatch.setattr(Assumptions, "_const_bounds", counting)
        ctx = Assumptions().assume_range("K", 1, Var("N")).assume_le("N", 100)
        for _ in range(5):
            assert ctx.compare(Var("K"), Var("N") + 1) == "<"
            assert ctx.upper_bound(Var("K")) == 100
        assert len(roots) == len(set(roots)) == 3
        ctx.assume_le("N", 50)  # a new fact: every answer is asked again
        assert ctx.upper_bound(Var("K")) == 50
        assert ctx.copy().upper_bound(Var("K")) == 50
        assert len(roots) == 5

    def test_operand_types_are_part_of_the_question(self):
        # 1 == 1.0 and Const(0) vs Const(0.0): only the integers are affine
        ctx = Assumptions().assume_ge("N", 1)
        assert ctx.compare(0, Var("N")) == "<"
        assert ctx.compare(0.0, Var("N")) is None
        assert ctx.compare(Const(0), Var("N")) == "<"
        assert ctx.compare(Const(0.0), Var("N")) is None
        assert ctx.compare(0, Var("N")) == "<"

    def test_memo_is_bounded(self, monkeypatch):
        cap = 64
        monkeypatch.setattr(assume, "_MEMO_CAP", cap)
        ctx = Assumptions().assume_range("N", 10, 20)
        # _EMPTY is process-lifetime: every ctx-less simplify/prove_* call.
        # Earlier tests have filled it under the real cap, and may already
        # hold the first answer asked for below (then nothing is inserted
        # and nothing cleared), so start it empty.
        _EMPTY._memo.clear()
        for k in range(10 * cap):
            assert ctx.compare(Var("N"), k) == (
                ">" if k < 10 else ">=" if k == 10 else "<" if k > 20
                else "<=" if k == 20 else None)
            assert prove_lt(Var("N"), Var("N") + Const(k)) == (k > 0)
            assert len(ctx._memo) <= cap and len(_EMPTY._memo) <= cap
        assert ctx.compare(Var("N"), 3) == ">"  # evicted, asked again


_VARS = ("I", "J", "N")
_terms = st.one_of(
    st.integers(-3, 6),
    st.sampled_from(_VARS).map(Var),
    st.builds(lambda v, c: Var(v) + c, st.sampled_from(_VARS), st.integers(-2, 2)),
)
# what a query may be handed: the affine terms, plus look-alikes that are
# not affine (floats) and must not share an answer with their integer twin
_operands = st.one_of(_terms, st.sampled_from((0.0, 1.0, Const(0.0), Const(1.0))))
_ranges = st.sampled_from((
    {"I": (Const(1), Var("N"))},
    {"I": (Const(1), Var("N")), "J": (Var("I"), Var("N"))},
    {"J": (Var("I") + 1, Min((Var("N"), Var("I") + 4)))},
))
_ops = st.one_of(
    st.tuples(st.sampled_from(("assume_ge", "assume_le")),
              st.sampled_from(_VARS), _terms),
    st.tuples(st.just("assume_range"), st.sampled_from(_VARS), _terms, _terms),
    st.tuples(st.just("copy")),
    st.tuples(st.sampled_from(("lower_bound", "upper_bound", "is_nonneg", "is_zero")),
              _terms),
    st.tuples(st.just("compare"), _operands, _operands),
    st.tuples(st.just("expr_range"), _terms, _ranges),
)


def _ask(ctx, op):
    if op[0] == "expr_range":
        return expr_range(op[1], op[2], ctx)
    return getattr(ctx, op[0])(*op[1:])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), _ops), max_size=40))
def test_memoising_context_answers_like_a_rebuilt_one(program):
    """Any interleaving of facts, copies and queries over several live
    contexts: the long-lived (memoising) context answers exactly as one
    rebuilt from the same facts and asked once."""
    live = [(Assumptions(), [])]  # (context, the facts it was given)
    for which, op in program:
        ctx, facts = live[which % len(live)]
        if op[0] == "copy":
            live.append((ctx.copy(), list(facts)))
        elif op[0].startswith("assume"):
            _ask(ctx, op)
            facts.append(op)
        else:
            rebuilt = Assumptions()
            for fact in facts:
                _ask(rebuilt, fact)
            assert _ask(ctx, op) == _ask(rebuilt, op), op
