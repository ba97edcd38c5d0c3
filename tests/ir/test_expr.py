"""Expression node construction, smart constructors, operator overloads."""

import copy
import dataclasses
import pickle

import pytest

from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Const,
    IntDiv,
    LogicalOp,
    Max,
    Min,
    Not,
    Var,
    add,
    as_expr,
    free_vars,
    mul,
    smax,
    smin,
    sub,
)
from tests.conftest import CountingName, lookup_across_hash_seeds


class TestConstruction:
    def test_const_and_var(self):
        assert Const(3).value == 3
        assert Var("I").name == "I"

    def test_const_int_and_float_differ(self):
        # as documented: an Expr-keyed table must not hand a float literal
        # the integer's answer (Python's own 0 == 0.0, hash(0) == hash(0.0))
        assert Const(0) != Const(0.0) and Const(2) != Const(2.0)
        assert hash(Const(0)) != hash(Const(0.0))
        assert len({Const(0), Const(0.0), Const(0), Const(0.0)}) == 2
        assert Var("I") + Const(1) != Var("I") + Const(1.0)
        assert Const(3) == Const(3) and Const(2.5) == Const(2.5)
        assert Const(0) != 0 and Const(0) != Var("I")

    def test_as_expr_coercions(self):
        assert as_expr(5) == Const(5)
        assert as_expr(2.5) == Const(2.5)
        assert as_expr("N") == Var("N")
        e = Var("I")
        assert as_expr(e) is e

    def test_as_expr_rejects_bool_and_junk(self):
        with pytest.raises(TypeError):
            as_expr(True)
        with pytest.raises(TypeError):
            as_expr([1, 2])

    def test_binop_validates_op(self):
        with pytest.raises(ValueError):
            BinOp("%", Const(1), Const(2))

    def test_min_max_need_two_args(self):
        with pytest.raises(ValueError):
            Min((Const(1),))
        with pytest.raises(ValueError):
            Max((Const(1),))

    def test_arrayref_needs_subscripts(self):
        with pytest.raises(ValueError):
            ArrayRef("A", ())
        assert ArrayRef("A", (Var("I"), Var("J"))).rank == 2

    def test_compare_validates_and_negates(self):
        c = Compare("lt", Var("I"), Var("N"))
        assert c.negate() == Compare("ge", Var("I"), Var("N"))
        with pytest.raises(ValueError):
            Compare("<<", Var("I"), Var("N"))

    def test_logicalop_validates(self):
        with pytest.raises(ValueError):
            LogicalOp("xor", (Const(1), Const(2)))


class TestOperatorOverloads:
    def test_add_builds_tree(self):
        e = Var("I") + 1
        assert e == BinOp("+", Var("I"), Const(1))

    def test_radd_rsub_rmul(self):
        assert 1 + Var("I") == BinOp("+", Const(1), Var("I"))
        assert 3 - Var("I") == BinOp("-", Const(3), Var("I"))
        assert (2 * Var("I")) == BinOp("*", Const(2), Var("I"))

    def test_structural_equality_is_preserved(self):
        # `==` compares trees; named comparison builders make IR nodes
        assert (Var("I") == Var("I")) is True
        assert Var("I").lt("N") == Compare("lt", Var("I"), Var("N"))
        assert Var("I").eq_(0) == Compare("eq", Var("I"), Const(0))

    def test_neg(self):
        assert -Var("I") == BinOp("*", Const(-1), Var("I"))


class TestSmartConstructors:
    def test_constant_folding(self):
        assert add(2, 3) == Const(5)
        assert sub(7, 2) == Const(5)
        assert mul(4, 3) == Const(12)

    def test_identities(self):
        i = Var("I")
        assert add(i, 0) == i
        assert add(0, i) == i
        assert sub(i, 0) == i
        assert mul(i, 1) == i
        assert mul(1, i) == i

    def test_sub_self_is_zero(self):
        assert sub(Var("I"), Var("I")) == Const(0)

    def test_nested_constant_merge(self):
        # (I + 2) + 3 -> I + 5
        e = add(add(Var("I"), 2), 3)
        assert e == BinOp("+", Var("I"), Const(5))

    def test_smin_flattens_and_dedups(self):
        e = smin(smin(Var("A"), Var("B")), Var("A"), 5, 7)
        assert isinstance(e, Min)
        assert e.args == (Var("A"), Var("B"), Const(5))

    def test_smax_collapses_to_single(self):
        assert smax(Var("A"), Var("A")) == Var("A")

    def test_smin_constants_combine(self):
        assert smin(3, 9) == Const(3)
        assert smax(3, 9) == Const(9)


class TestFreeVars:
    def test_covers_every_node_kind(self):
        e = Min(
            (
                BinOp("+", Var("I"), IntDiv(Var("N"), Const(2))),
                Call("SQRT", (ArrayRef("A", (Var("J"),)),)),
            )
        )
        assert free_vars(e) == {"I", "N", "J"}

    def test_logical_and_not(self):
        e = Not(LogicalOp("and", (Var("P").eq_(1), Var("Q").eq_(0))))
        assert free_vars(e) == {"P", "Q"}

    def test_array_name_not_included(self):
        assert free_vars(ArrayRef("A", (Var("I"),))) == {"I"}


class TestRememberedHash:
    """Each node computes its structural hash once and keeps it outside
    its fields, its pickles and its copies."""

    def tree(self):
        i = Var("I")
        return ArrayRef("A", (add(i, 1), Min((i, Var("N"))), Call("ABS", (i - 2,))))

    def test_hash_computed_once_and_reused_by_parents(self):
        leaf = Var(CountingName("I"))
        CountingName.hashes = 0
        for _ in range(5):
            hash(leaf)
        assert CountingName.hashes == 1
        tree = BinOp("*", add(leaf, 1), Not(Compare("lt", leaf, Const(3))))
        for _ in range(5):
            hash(tree)
        assert CountingName.hashes == 1

    def test_kept_hash_is_no_field(self):
        t = self.tree()
        hash(t)
        assert [f.name for f in dataclasses.fields(t)] == ["array", "index"]
        for twin in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t), copy.copy(t)):
            assert not hasattr(twin, "_hash")

    def test_copies_hash_like_fresh_equal_objects(self):
        t = self.tree()
        hash(t)
        twins = [copy.deepcopy(t), copy.copy(t), pickle.loads(pickle.dumps(t)),
                 dataclasses.replace(t, array="A")]
        for twin in twins:
            fresh = self.tree()
            assert twin == fresh and hash(twin) == hash(fresh)
            assert {fresh: "found"}[twin] == "found"
        other = dataclasses.replace(t, array="B")
        assert other != t and hash(other) != hash(t)

    def test_const_stays_strict_about_int_and_float(self):
        zero, fzero = Const(0), Const(0.0)
        assert zero != fzero and hash(zero) != hash(fzero)
        assert len({zero: 1, fzero: 2, Const(0): 3}) == 2
        assert BinOp("+", Var("I"), zero) != BinOp("+", Var("I"), fzero)

    def test_pickled_under_one_hash_seed_found_under_another(self):
        build = (
            "from repro.ir.expr import ArrayRef, Call, Const, Min, Var, add\n"
            "i = Var('I')\n"
            "OBJS = [i, Const(0), Const(0.0), add(i, Var('KS')),\n"
            "        ArrayRef('A', (add(i, 1), Min((i, Var('N'))), Call('ABS', (i - 2,))))]\n"
        )
        assert lookup_across_hash_seeds(build) == [0, 1, 2, 3, 4]
