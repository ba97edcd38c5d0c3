"""Expression node construction, smart constructors, operator overloads."""

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
