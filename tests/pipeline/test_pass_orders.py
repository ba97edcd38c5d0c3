"""Every bound pass order keeps the bytes.

For each registry workload, every sequence of at most two passes drawn
from its bound passes (``pass_options`` and ``default_passes``; 84
sequences over the six workloads) runs under
``derive(..., verify=True)``: each applied span is differentially
verified against the point algorithm, byte for byte, so a pass that
miscompiles in some order fails here with the pass named.  A pass may
decline (an infeasible or error span), but it may not crash.
"""

import itertools

import pytest

from repro.algorithms import lu_point_ir
from repro.check.legality import postcheck
from repro.errors import TransformError
from repro.ir.expr import Const, Var
from repro.ir.stmt import Loop
from repro.pipeline import AnalysisCache, available_workloads, derive
from repro.symbolic.assume import Assumptions
from repro.transform import split_trapezoid, strip_mine

WORKLOADS = [w.name for w in available_workloads()]


def bound_passes(workload):
    return sorted(set(workload.pass_options) | set(workload.default_passes))


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_pass_order_of_length_two_verifies(name):
    workload = next(w for w in available_workloads() if w.name == name)
    names = bound_passes(workload)
    cache = AnalysisCache()
    orders = [(p,) for p in names] + list(itertools.product(names, repeat=2))
    for order in orders:
        result = derive(name, list(order), verify=True, cache=cache)
        for span in result.spans:
            assert span.status != "applied" or span.verify["ok"], (order, span.name)


# ---------------------------------------------------------------------------
# stripmine,split on lu_nopivot: the split once left the strided lattice
# ---------------------------------------------------------------------------

def strip_mined_lu():
    proc = lu_point_ir()
    ctx = Assumptions().assume_ge("N", 2)
    proc, _ = strip_mine(proc, proc.body[0], "KS", ctx=ctx)
    return proc, ctx.assume_ge("KS", 2)


def test_trapezoid_split_refuses_a_strided_outer_loop():
    proc, ctx = strip_mined_lu()
    with pytest.raises(TransformError, match="unit step"):
        split_trapezoid(proc, proc.body[0], ctx)


def test_stripmine_then_split_keeps_the_bytes():
    result = derive("lu_nopivot", ["stripmine", "split"], verify=True, check=True)
    assert [s.status for s in result.spans] == ["applied", "noop"]


def test_split_postcheck_flags_a_strided_piece():
    """The piece pair the old splitter produced: DO K = 1, MIN(N-1, X), KS
    then DO K = MAX(1, X+1), N-1, KS — the second starts off the lattice
    1, 1+KS, ... although it meets the first at ``X + 1``."""
    before, ctx = strip_mined_lu()
    outer = before.body[0]
    cut = Var("X")
    first = Loop("K", outer.lo, cut, outer.body, step=outer.step)
    second = Loop("K", cut + Const(1), outer.hi, outer.body, step=outer.step)
    after = before.with_body((first, second))
    rules = [d.rule for d in postcheck("split", before, after, ctx, {"loop": "K"})]
    assert rules == ["legal/split-partition"]


# ---------------------------------------------------------------------------
# givens_opt twice: the second application is infeasible, not a crash
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check", [False, True])
def test_a_second_givens_opt_is_skipped(check):
    result = derive("givens", ["givens_opt", "givens_opt"], check=check)
    assert [s.status for s in result.spans] == ["applied", "infeasible"]
    assert result.procedure == derive("givens").procedure
