"""The Section 5 blockability study, end to end.

These are the headline results of the reproduction.  ``lint_loop`` gives
the verdict; ``derive`` (the ``block`` pass) derives the program, which
must compute the point algorithm's bytes.  That ``block`` reaches the
same verdict is ``tests/check/test_lint_is_block.py``'s invariant:

- LU without pivoting: blockable (derives Fig. 6);
- LU with partial pivoting: blockable-with-commutativity (derives Fig. 8);
- Householder QR: not-blockable;
- Givens QR: not-blockable; Fig. 10 derived by ``givens_opt``,
  node-for-node equal to the paper transcription.
"""

import numpy as np
import pytest

from repro.algorithms import (
    givens_optimized_ir,
    givens_point_ir,
    householder_point_ir,
    lu_pivot_point_ir,
    lu_point_ir,
)
from repro.check import lint_loop
from repro.check.linter import BLOCKABLE, BLOCKABLE_WITH_COMMUTATIVITY, NOT_BLOCKABLE
from repro.pipeline import derive
from repro.runtime import compile_procedure
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)
MN = Assumptions().assume_ge("M", 2).assume_le("N", "M")


class TestLUNoPivot:
    def test_blockable(self):
        assert lint_loop(lu_point_ir(), "K", ctx=N2).verdict == BLOCKABLE
        r = derive("lu_nopivot")
        report = r.artifact("block")
        assert report.blocked_innermost >= 1
        assert report.used_index_set_split
        assert not report.used_commutativity
        assert_equivalent(lu_point_ir(), r.procedure, {"N": 12, "KS": 4})


@pytest.mark.slow
class TestLUPivot:
    def test_blockable_with_commutativity(self):
        lint = lint_loop(lu_pivot_point_ir(), "K", ctx=N2)
        assert lint.verdict == BLOCKABLE_WITH_COMMUTATIVITY
        r = derive("lu_pivot")
        assert r.artifact("block").used_commutativity
        # commuted row swaps + column updates: the same multiplications
        # happen in the same per-element order, so the bytes are identical
        for sizes in ({"N": 12, "KS": 4}, {"N": 13, "KS": 4}):
            assert_equivalent(lu_pivot_point_ir(), r.procedure, sizes)

    def test_not_blockable_without_commutativity(self):
        lint = lint_loop(lu_pivot_point_ir(), "K", ctx=N2, allow_commutativity=False)
        assert lint.verdict == NOT_BLOCKABLE


class TestHouseholder:
    def test_not_blockable(self):
        ctx = Assumptions().assume_ge("M", 2).assume_ge("N", 2).assume_le("N", "M")
        assert lint_loop(householder_point_ir(), "K", ctx=ctx).verdict == NOT_BLOCKABLE


class TestGivens:
    def test_fig10_derived_exactly(self):
        assert derive("givens").procedure.body == givens_optimized_ir().body

    def test_not_blockable(self):
        assert lint_loop(givens_point_ir(), "L", ctx=MN).verdict == NOT_BLOCKABLE

    def test_derived_is_bitwise_equivalent(self):
        derived = derive("givens").procedure
        rng = np.random.default_rng(11)
        for m, n in ((9, 6), (6, 6), (8, 3)):
            a = rng.uniform(-1, 1, (m, n))
            a[rng.uniform(size=(m, n)) < 0.25] = 0.0
            r1 = compile_procedure(givens_point_ir())({"M": m, "N": n}, arrays={"A": a})
            r2 = compile_procedure(derived)({"M": m, "N": n}, arrays={"A": a})
            assert r1["A"].tobytes() == r2["A"].tobytes()
