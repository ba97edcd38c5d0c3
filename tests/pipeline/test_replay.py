"""A warm checked re-derive replays its verdicts.

On a pass-memo hit under ``check=True`` the manager replays the pass's
legality and ``verify_ir`` findings instead of re-deriving them, and takes
IR sizes from the fingerprint memo.  The replay must be indistinguishable
from a recomputation: same diagnostics, same trace, same ``check.*``
counters — and no ``check:*`` span, which is how a replay is told apart.
"""

from __future__ import annotations

import pytest

from repro.errors import CheckError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.fingerprint import ir_fingerprint, ir_size
from repro.ir.stmt import ArrayDecl, Procedure
from repro.obs import core as obs
from repro.pipeline import derive
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import run_passes
from repro.pipeline.workloads import available_workloads, get_workload
from repro.symbolic.assume import Assumptions

WORKLOADS = [w.name for w in available_workloads()]


def observed(fn):
    """``fn()`` under a fresh observer: (value or raised error, observer)."""
    with obs.enabled() as o:
        try:
            return fn(), o
        except CheckError as err:
            return err, o


def spans_of(trace: dict) -> list:
    return [{k: v for k, v in s.items() if k not in ("wall_s", "cached")}
            for s in trace["spans"]]


def check_spans(o) -> list:
    return [s.name for s in o.spans if s.name.startswith("check:")]


def check_counters(o) -> dict:
    return {k: n for k, n in o.counters.items() if k.startswith("check.")}


def summary(result) -> tuple:
    return (
        [d.to_dict() for d in result.check_diagnostics],
        spans_of(result.trace),
        ir_fingerprint(result.procedure),
        ir_size(result.procedure),
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_warm_checked_rederive_is_a_recomputation(name):
    a = AnalysisCache()
    cold, o_cold = observed(lambda: derive(name, cache=a, check=True))
    warm, o_warm = observed(lambda: derive(name, cache=a, check=True))
    fresh = derive(name, cache=AnalysisCache(), check=True)
    assert summary(cold) == summary(warm) == summary(fresh)
    assert all(s.cached for s in warm.spans if s.status == "applied")
    assert check_spans(o_cold) and not check_spans(o_warm)
    assert check_counters(o_warm) == check_counters(o_cold)
    assert "check.diagnostics" in check_counters(o_warm)


def test_a_failing_check_raises_the_same_way_cold_and_warm():
    w = get_workload("lu_nopivot")
    spec = [("block", {**w.pass_options["block"], "max_splits": 0})]
    cache = AnalysisCache()

    def run():
        return run_passes(w.build(), spec, ctx=w.context(None), cache=cache,
                          check=True, algorithm=w.name)

    cold, o_cold = observed(run)
    warm, o_warm = observed(run)
    for err in (cold, warm):
        assert isinstance(err, CheckError)
        assert "legal/block-carried-recurrence" in str(err)
    assert str(warm) == str(cold)
    assert [d.to_dict() for d in warm.diagnostics] == [
        d.to_dict() for d in cold.diagnostics]
    assert spans_of(warm.result.trace) == spans_of(cold.result.trace)
    assert warm.result.spans[0].status == "check-failed"
    assert check_counters(o_warm) == check_counters(o_cold)


# ---- keys never leak -------------------------------------------------------

def zero_step_proc() -> Procedure:
    return Procedure(
        "zs", ("N", "S"), (ArrayDecl("A", (Var("N"),)),),
        (do("I", 1, "N", assign(ref("A", "I"), 1.0), step="S"),),
    )


def race_proc() -> Procedure:
    """``A(I,J) = A(I-1,J+1)``: a (<,>) dependence, so jam's legality
    precheck reports ``legal/jam-carried-race`` (a warning: jam guards
    itself and skips the nest)."""
    body = assign(ref("A", "I", "J"),
                  ref("A", Var("I") - 1, Var("J") + 1) + 1.0)
    return Procedure(
        "race", ("N",), (ArrayDecl("A", (Var("N"), Var("N"))),),
        (do("I", 2, "N", do("J", 1, Var("N") - 1, body)),),
    )


def zero_step(cache, with_facts: bool):
    ctx = Assumptions().assume_ge("N", 1)
    if with_facts:
        ctx = ctx.assume_ge("S", 0).assume_le("S", 0)
    try:
        run_passes(zero_step_proc(), ["scalars"], ctx=ctx, cache=cache, check=True)
    except CheckError as err:
        return [d.rule for d in err.diagnostics]
    return []


@pytest.mark.parametrize("order", [(True, False), (False, True)])
def test_input_verification_is_keyed_by_its_facts(order):
    cache = AnalysisCache()
    got = {facts: zero_step(cache, facts) for facts in order}
    assert got == {True: ["ir/zero-step"], False: []}
    # and a replay of each answers the same
    assert {facts: zero_step(cache, facts) for facts in order} == got


def jam_detail(cache, unroll: int) -> dict:
    result = run_passes(race_proc(), [("jam", {"loop": "I", "unroll": unroll})],
                        ctx=Assumptions().assume_ge("N", 4), cache=cache, check=True)
    return result.spans[0].detail


@pytest.mark.parametrize("order", [(2, 4), (4, 2)])
def test_each_unroll_keeps_its_own_findings(order):
    want = {u: jam_detail(AnalysisCache(), u) for u in order}
    assert [d["rule"] for d in want[2]["check"]] == ["legal/jam-carried-race"]
    cache = AnalysisCache()
    for _ in range(2):
        for u in order:
            assert jam_detail(cache, u) == want[u]


def test_a_callable_option_is_judged_on_every_run():
    w = get_workload("lu_nopivot")
    # an IR node, like a callable, is not a JSON scalar: no memo key
    opts = {**w.pass_options["block"], "factor": Var("KS")}
    cache = AnalysisCache()
    for _ in range(2):
        result, o = observed(lambda: run_passes(
            w.build(), [("block", opts)], ctx=w.context(None), cache=cache,
            check=True))
        assert not result.spans[0].cached
        assert "check:legality:block" in check_spans(o)
