"""Structural fingerprints: equal IR hashes equal, renamed IR differs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import conv_ir, givens_point_ir, lu_point_ir
from repro.ir.build import assign, do, ref
from repro.ir.expr import (
    ArrayRef, BinOp, Call, Compare, Const, IntDiv, LogicalOp, Max, Min, Not, Var,
)
from repro.ir.fingerprint import ir_fingerprint, ir_size
from repro.ir.stmt import (
    ArrayDecl, Assign, Comment, If, InLoop, Loop, ParallelLoop, Procedure,
)
from repro.ir.visit import substitute


def test_equal_ir_equal_fingerprint():
    a, b = lu_point_ir(), lu_point_ir()
    assert a is not b and a == b
    assert ir_fingerprint(a) == ir_fingerprint(b)


def test_fingerprint_is_stable_across_calls():
    p = givens_point_ir()
    assert ir_fingerprint(p) == ir_fingerprint(p)


def test_distinct_algorithms_differ():
    fps = {ir_fingerprint(p()) for p in (lu_point_ir, givens_point_ir, conv_ir)}
    assert len(fps) == 3


def test_renamed_variable_changes_fingerprint():
    body = assign(ref("A", "I"), Const(0.0))
    loop_i = do("I", 1, "N", body)
    loop_j = do("J", 1, "N", assign(ref("A", "J"), Const(0.0)))
    assert loop_i != loop_j
    assert ir_fingerprint(loop_i) != ir_fingerprint(loop_j)
    # renaming only the reference (not the loop header) also changes it
    half_renamed = do("I", 1, "N", assign(ref("A", "J"), Const(0.0)))
    assert ir_fingerprint(loop_i) != ir_fingerprint(half_renamed)


def test_substituted_procedure_body_changes_fingerprint():
    p = lu_point_ir()
    renamed = substitute(p.body[0], {"N": Var("M")})
    assert ir_fingerprint(renamed) != ir_fingerprint(p.body[0])


def test_const_type_distinction():
    # integer 0 and float 0.0 are different programs (int division!)
    assert ir_fingerprint(Const(0)) != ir_fingerprint(Const(0.0))
    assert ir_fingerprint(Const(1)) != ir_fingerprint(Const(True))


def test_expr_vs_var_name_collision_resists():
    # token stream must not let (Var "AB") collide with (Var "A", Var "B")
    a = (Var("AB"),)
    b = (Var("A"), Var("B"))
    assert ir_fingerprint(a) != ir_fingerprint(b)


def test_body_sequences_fingerprintable():
    p = lu_point_ir()
    assert ir_fingerprint(p.body) == ir_fingerprint(tuple(p.body))
    assert ir_fingerprint(p.body) != ir_fingerprint(p)


def test_ir_size_counts_grow_with_program():
    small = Procedure(
        "tiny",
        ("N",),
        (ArrayDecl("A", (Var("N"),)),),
        (do("I", 1, "N", assign(ref("A", "I"), Const(0.0))),),
    )
    assert ir_size(small) < ir_size(lu_point_ir())
    assert ir_size(Const(1)) == 1


def test_unknown_object_rejected():
    with pytest.raises(TypeError, match="cannot fingerprint object"):
        ir_fingerprint(object())
    with pytest.raises(TypeError, match="cannot fingerprint int64"):
        ir_fingerprint(Const(np.int64(1)))


def _every_token_kind() -> Procedure:
    """None (a missing label), bool, str, int, float, nested tuples, a
    ``ParallelLoop.kind`` and an ``ArrayDecl.dtype``, under every node."""
    i, n = Var("I"), Var("N")
    body = (
        Comment("every token kind"),
        Assign(Var("T"), Const(True), label="10"),
        ParallelLoop("I", Const(1), n, (
            Assign(ArrayRef("A", (i, Const(1))),
                   BinOp("*", Const(0.5), ArrayRef("A", (i, Const(2))))),
            If(LogicalOp("and", (Compare("lt", i, n), Not(Compare("eq", i, Const(3))))),
               (Assign(Var("S"), Call("SQRT", (Min((i, n)),))),),
               (Assign(Var("S"), Max((IntDiv(n, Const(2)), Const(-7)))),)),
        ), step=Const(2), kind="reduction"),
        Loop("J", Const(1), n, (Assign(Var("S"), Const(False)),)),
    )
    return Procedure("tokens", ("N",),
                     (ArrayDecl("A", (n, Const(2))), ArrayDecl("W", (n,), dtype="f4")), body)


class TestGoldenDigests:
    """Digests recorded before the token stream was hashed in one call:
    the hash of the concatenation equals the chunked hash, so no digest,
    store key or pass-memo key moves."""

    def test_every_token_kind(self):
        assert ir_fingerprint(_every_token_kind()) == (
            "9d097709950791709662d5defa1f5cd846aaeea52bc42872fefd31ad84dc7f07")

    def test_bare_body(self):
        assert ir_fingerprint(list(_every_token_kind().body)) == (
            "a2a39e33bcc6218120a01fd2b7b4bb862d546d63ec66e2524f8efb75d36b7f3e")

    def test_unlowered_loop_with_missing_bounds(self):
        assert ir_fingerprint(InLoop("KK", "K", (Comment("x"),))) == (
            "54980876ddcc2230808cb4d15c8c1b899d0a8f3405ac130d210e265ef070cda7")

    def test_numpy_float_keeps_its_repr(self):
        # an np.float64 is a float; its repr (numpy >= 2: "np.float64(0.5)")
        # is the token, so it differs from the Python float's
        assert ir_fingerprint(Const(np.float64(0.5))) == (
            "562a37c940f65a02c6a5f3f7fa8ca128e1a00b0ce52e381ea2f71f104e8d3d3b")
        assert ir_fingerprint(Const(np.float64(0.5))) != ir_fingerprint(Const(0.5))
