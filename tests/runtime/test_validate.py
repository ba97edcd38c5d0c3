"""Semantic-equivalence validator behaviour."""

import numpy as np
import pytest

from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.runtime.interpreter import execute
from repro.runtime.validate import assert_equivalent, run_on_random


def proc_with(body, name="p"):
    return Procedure(name, ("N",), (ArrayDecl("A", (Var("N"),)),), body)


class TestAssertEquivalent:
    def test_detects_differences_with_location(self):
        p1 = proc_with((do("I", 1, "N", assign(ref("A", "I"), Const(1.0))),))
        p2 = proc_with((do("I", 1, "N", assign(ref("A", "I"), Const(2.0))),))
        with pytest.raises(AssertionError, match=r"4 elements differ .*first at \(1,\): 1.0 vs 2.0"):
            assert_equivalent(p1, p2, {"N": 4})

    def test_accepts_equal(self):
        p1 = proc_with((do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") * 2.0)),))
        assert_equivalent(p1, p1.with_body(p1.body), {"N": 4})

    def test_tolerant_mode(self):
        p1 = proc_with((do("I", 1, "N", assign(ref("A", "I"), (ref("A", "I") + 1.0) + 1e-13)),))
        p2 = proc_with((do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0)),))
        with pytest.raises(AssertionError):
            assert_equivalent(p1, p2, {"N": 4}, exact=True)
        assert_equivalent(p1, p2, {"N": 4}, exact=False, atol=1e-10)

    def test_compiler_temporaries_ignored(self):
        p1 = proc_with((do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0)),))
        p2 = p1.adding_arrays(ArrayDecl("KLB", (Var("N"),), "i8"))
        assert_equivalent(p1, p2, {"N": 5})

    def test_no_shared_arrays_is_an_error(self):
        p1 = proc_with((assign(ref("A", 1), 0.0),))
        p2 = Procedure("q", ("N",), (ArrayDecl("B", (Var("N"),)),), (assign(ref("B", 1), 0.0),))
        with pytest.raises(AssertionError, match="share no arrays"):
            assert_equivalent(p1, p2, {"N": 3})

    def test_engines_agree(self):
        p = proc_with((do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") * 3.0)),))
        ei = execute(p, {"N": 6}, seed=9)
        ec = run_on_random(p, {"N": 6}, seed=9)
        assert np.array_equal(ei["A"], ec["A"])
