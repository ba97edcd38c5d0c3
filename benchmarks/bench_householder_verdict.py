"""Section 5.3: Householder QR is NOT blockable.

Two halves of the paper's argument, both regenerated:

1. the compiler, with every tool it has (IndexSetSplit, commutativity),
   fails to sink the strip loop — verdict not-blockable;
2. the block algorithm *exists* mathematically (compact WY) but performs
   auxiliary computation (the T matrix, the W workspace) with no
   counterpart in the point algorithm — quantified here by counting the
   auxiliary floats the block form writes.
"""

import numpy as np
import pytest

from repro.algorithms import householder_block_ref, householder_point_ir, householder_ref
from repro.check import lint_loop
from repro.check.linter import NOT_BLOCKABLE
from repro.symbolic.assume import Assumptions


def test_householder_not_blockable(benchmark, show):
    ctx = Assumptions().assume_ge("M", 2).assume_ge("N", 2).assume_le("N", "M")

    res = benchmark.pedantic(
        lambda: lint_loop(householder_point_ir(), "K", ctx=ctx),
        rounds=1,
        iterations=1,
    )
    show("Sec. 5.3 verdict", f"verdict: {res.verdict}")
    assert res.verdict == NOT_BLOCKABLE


def test_householder_block_needs_extra_computation(benchmark, show):
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, (48, 32))

    def run():
        return householder_block_ref(a, block=8)

    blocked, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    point = householder_ref(a)
    # same R factor...
    assert np.allclose(np.triu(blocked[:32]), np.triu(point[:32]), atol=1e-8)
    # ...but auxiliary storage/computation the point algorithm never does:
    # T contributes ~kb^2/2 per panel, W a full block of the trailing matrix
    assert stats["aux_writes"] > 32 * 8  # far more than "none"
    rows = [
        f"block=8 auxiliary floats written (T, W): {stats['aux_writes']}",
        "point algorithm auxiliary floats: 0  (no T, no W — Sec. 5.3's point)",
    ]
    show("Sec. 5.3: block Householder's extra computation", "\n".join(rows))


@pytest.mark.parametrize("block", [2, 4, 8, 16])
def test_householder_aux_grows_with_block(benchmark, block):
    """The machine-dependent blocking factor controls computation that the
    point algorithm simply does not contain — exactly why no reordering of
    the point code can produce the block algorithm."""
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, (48, 32))
    _, stats = benchmark.pedantic(
        lambda: householder_block_ref(a, block=block), rounds=1, iterations=1
    )
    assert stats["aux_writes"] > 0
