"""Figures 6, 8, 10: the compiler-derived block/optimized algorithms.

The headline reproduction: starting from the *point* listings, the
compiler must derive

- Fig. 6 — block LU without pivoting (IndexSetSplit + distribution +
  triangular interchange),
- Fig. 8 — block LU with partial pivoting (additionally the Sec. 5.2
  commutativity knowledge),
- Fig. 10 — optimized Givens QR (split + scalar expansion + fused
  IF-inspection + interchange), node-for-node equal to the paper
  transcription.
"""

import pytest

from repro.algorithms import (
    givens_optimized_ir,
    lu_block_fig6_ir,
    lu_pivot_point_ir,
    lu_point_ir,
)
from repro.check import lint_loop
from repro.check.linter import BLOCKABLE, BLOCKABLE_WITH_COMMUTATIVITY
from repro.ir.pretty import to_fortran
from repro.ir.stmt import Loop
from repro.ir.visit import find_loops, loop_by_var
from repro.pipeline import derive
from repro.runtime.validate import assert_equivalent
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)


def test_fig06_block_lu_derived(benchmark, show):
    assert lint_loop(lu_point_ir(), "K", ctx=N2).verdict == BLOCKABLE
    res = benchmark.pedantic(lambda: derive("lu_nopivot"), rounds=1, iterations=1)
    assert res.artifact("block").blocked_innermost >= 1
    derived = res.procedure
    show(
        "Figure 6: block LU derived from the point algorithm",
        to_fortran(derived) + "\n\n--- paper transcription (clamps added) ---\n"
        + to_fortran(lu_block_fig6_ir()),
    )
    # Fig. 6 structure: a point panel (KK outer) and a trailing update
    # with KK innermost under J and I, triangular clamp KK <= I-1
    k = loop_by_var(derived.body, "K")
    top_vars = [s.var for s in k.body if isinstance(s, Loop)]
    assert top_vars == ["KK", "J"]
    update_j = next(s for s in k.body if isinstance(s, Loop) and s.var == "J")
    update_order = [l.var for l in find_loops(update_j)]
    assert update_order == ["J", "I", "KK"]
    # and it is exactly equivalent to the paper's published block algorithm
    for n, ks in ((12, 4), (13, 5)):
        assert_equivalent(lu_block_fig6_ir(), derived, {"N": n, "KS": ks})


@pytest.mark.slow
def test_fig08_block_lu_pivot_derived(benchmark, show):
    lint = lint_loop(lu_pivot_point_ir(), "K", ctx=N2)
    assert lint.verdict == BLOCKABLE_WITH_COMMUTATIVITY
    res = benchmark.pedantic(lambda: derive("lu_pivot"), rounds=1, iterations=1)
    assert res.artifact("block").used_commutativity
    derived = res.procedure
    show("Figure 8: block LU with partial pivoting (derived)", to_fortran(derived))
    # Fig. 8 structure: the point algorithm stays in the KK panel
    # (search + whole-row swaps + scale), the trailing update is extracted
    k = loop_by_var(derived.body, "K")
    top_loops = [s for s in k.body if isinstance(s, Loop)]
    assert top_loops[0].var == "KK"
    assert top_loops[-1].var == "J"
    assert [l.var for l in find_loops(top_loops[-1])] == ["J", "I", "KK"]
    # bitwise equivalence with the point algorithm (commuted row swaps and
    # column updates perform identical per-element arithmetic)
    assert_equivalent(lu_pivot_point_ir(), derived, {"N": 12, "KS": 4})
    assert_equivalent(lu_pivot_point_ir(), derived, {"N": 11, "KS": 3})


def test_fig10_givens_derived_node_for_node(benchmark, show):
    derived = benchmark.pedantic(
        lambda: derive("givens").procedure, rounds=1, iterations=1
    )
    show("Figure 10: optimized Givens QR (derived)", to_fortran(derived))
    # node-for-node equality with the paper transcription
    assert derived.body == givens_optimized_ir().body
    assert derived.arrays == givens_optimized_ir().arrays
