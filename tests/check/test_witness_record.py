"""One record says why: every witness a verdict carries — par's SERIAL
loops, the linter's blockability and parallelism diagnostics, legality's
``legal/*`` findings — is data of one declared shape, and an edge witness
is an edge the dependence tester really reports under the loop's path
context."""

from __future__ import annotations

import copy

import pytest

from repro.algorithms import lu_point_ir
from repro.analysis.context import context_for_path
from repro.analysis.dependence import WITNESS, all_dependences, witness_problems
from repro.artifacts import envelope, validate_document
from repro.artifacts.registry import CHECK_REPORT, PIPELINE_TRACE
from repro.artifacts.shape import check
from repro.artifacts.validate import RULE_PAYLOAD
from repro.check import build_report, lint_blockability, lint_parallelism, precheck
from repro.check import legality
from repro.errors import CheckError
from repro.ir.build import assign, do, parallel_do, ref
from repro.ir.expr import Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.par.detect import classify_procedure
from repro.pipeline import derive
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import PassManager, PassSpec, run_passes
from repro.pipeline.workloads import available_workloads
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)
EDGE_KINDS = {"flow", "anti", "output"}


def _compatible(w: dict, dep) -> bool:
    """``dep`` is the edge ``w`` names: same array, endpoints and loops
    (``w``'s loops may be the inner suffix of a relative view), and every
    direction entry agrees or one side leaves it open."""
    d = dep.witness()
    n = len(w["loops"])
    if (d["array"], d["source"], d["sink"]) != (w["array"], w["source"], w["sink"]):
        return False
    if n > len(d["loops"]) or d["loops"][len(d["loops"]) - n:] != w["loops"]:
        return False
    tail = d["direction"][len(d["direction"]) - n:]
    return all(a == b or "*" in (a, b) for a, b in zip(w["direction"], tail))


def assert_witness(w: dict, proc, loop, ctx) -> None:
    assert witness_problems(w, "w") == [], w
    if w["kind"] in EDGE_KINDS:
        assert check(w, WITNESS) == []
        local = context_for_path(proc, loop, ctx)
        assert any(_compatible(w, d) for d in all_dependences(proc, local)), w


def _loop_of(proc, path: str):
    """The loop a ``legal/*`` path is anchored at: its first ``DO v``."""
    var = path.split("/")[1].split("DO ")[-1]
    return next(l for l in find_loops(proc) if l.var == var)


@pytest.mark.parametrize("name", [w.name for w in available_workloads()])
def test_every_registry_witness_is_a_reported_edge(name, monkeypatch):
    from repro.pipeline.workloads import get_workload

    w = get_workload(name)
    proc, ctx = w.build(), w.context(None)
    seen = 0
    verdicts = classify_procedure(proc, ctx)
    for v in verdicts:
        if v.witness:
            assert_witness(v.witness, proc, v.loop, ctx)
            seen += 1
    for v, d in zip(verdicts, lint_parallelism(proc, ctx)):
        assert d.witness == v.witness
    for r in lint_blockability(proc, ctx):
        if r.verdict == "not-blockable":
            assert r.preventing is not None  # every "no" names why
        if r.preventing:
            assert r.diagnostic().witness == r.preventing
            assert_witness(r.preventing, proc, loop_by_var(proc.body, r.loop_var), ctx)
            seen += 1

    # legality inside derive(check=True): record what each check ran on
    found = []
    for fn in ("precheck_for_pipeline", "postcheck"):
        real = getattr(legality, fn)

        def spy(pass_name, *args, _real=real, **kw):
            out = _real(pass_name, *args, **kw)
            procs = [a for a in args if isinstance(a, Procedure)]
            cx = next((a for a in args if isinstance(a, Assumptions)), None)
            found.extend((procs[-1], cx, d) for d in out if d.witness)
            return out

        monkeypatch.setattr(legality, fn, spy)
    derive(name, cache=AnalysisCache(), check=True)
    for p, cx, d in found:
        assert_witness(d.witness, p, _loop_of(p, d.path), cx)
    assert seen or name in ("aconv", "conv")  # nothing serial, all blockable


def proc_of(*body):
    return Procedure("p", ("N",),
                     (ArrayDecl("A", (Var("N"), Var("N"))), ArrayDecl("B", (Var("N"),))),
                     tuple(body))


SKEWED = proc_of(do("I", 2, "N", do("J", 1, Var("N") - Const(1), assign(
    ref("A", "I", "J"), ref("A", Var("I") - Const(1), Var("J") + Const(1)) + Const(1)))))
RECURRENCE = do("I", 2, "N", assign(ref("B", "I"), ref("B", Var("I") - Const(1)) + Const(1)))

#: (pass, procedure, options, rule): every edge-naming legal/* rule
EDGE_RULES = [
    ("interchange", SKEWED, {"loop": "I"}, "legal/interchange-direction"),
    ("jam", SKEWED, {"loop": "I"}, "legal/jam-carried-race"),
    ("block", lu_point_ir(), {"loop": "K", "factor": "KS", "max_splits": 0},
     "legal/block-carried-recurrence"),
    ("parallelize", proc_of(parallel_do("I", 2, "N", *RECURRENCE.body)), {},
     "legal/par-carried-dep"),
    ("parallelize", proc_of(parallel_do("I", 1, "N", assign(
        ref("B", Const(1)), Var("I") + Const(0)), kind="reduction")), {},
     "legal/par-reduction-shape"),
]


def findings(pass_name, proc, options):
    """The legality findings on ``pass_name``: ``block`` is judged on the
    program it produced, every other edge-naming rule before its pass."""
    if pass_name == "block":
        after = run_passes(proc, [(pass_name, options)], ctx=N2).procedure
        return legality.postcheck(pass_name, proc, after, N2, options)
    return precheck(pass_name, proc, N2, options)


@pytest.mark.parametrize("pass_name,proc,options,rule", EDGE_RULES,
                         ids=[r for *_, r in EDGE_RULES])
def test_every_edge_naming_legal_rule_carries_a_reported_edge(pass_name, proc,
                                                               options, rule):
    diags = [d for d in findings(pass_name, proc, options) if d.rule == rule]
    assert diags
    for d in diags:
        assert d.witness["kind"] in EDGE_KINDS
        assert_witness(d.witness, proc, _loop_of(proc, d.path), N2)
        assert "; witness: " in d.pretty()


def test_the_swap_witness_is_the_reversed_edge():
    (d,) = precheck("interchange", SKEWED, N2, {"loop": "I"})
    assert d.witness == {
        "kind": "flow", "array": "A",
        "source": {"stmt": "A(I, J) = A(I - 1, J + 1) + 1", "ref": "A(I, J)"},
        "sink": {"stmt": "A(I, J) = A(I - 1, J + 1) + 1", "ref": "A(I - 1, J + 1)"},
        "loops": ["I", "J"], "direction": ["<", ">"], "distance": [None, None],
    }


def test_the_pipeline_demotion_keeps_the_witness():
    (d,) = legality.precheck_for_pipeline("jam", SKEWED, N2, {"loop": "I"})
    assert d.severity.value == "warning" and d.witness["direction"] == ["<", ">"]


def test_a_malformed_witness_is_an_invalid_payload():
    doc = build_report(lint_parallelism(lu_point_ir(), N2))
    assert validate_document(envelope(doc, CHECK_REPORT)) == []
    k = next(k for k, d in enumerate(doc["diagnostics"]) if "witness" in d)
    for bad in ({"source": "A(I, K)"}, {"direction": ["<", "?"]},
                {"kind": "imperfect-nest"}, {"distance": [1.5]}):
        mutated = copy.deepcopy(doc)
        mutated["diagnostics"][k]["witness"].update(bad)
        problems = validate_document(envelope(mutated, CHECK_REPORT))
        assert problems and {p.rule for p in problems} == {RULE_PAYLOAD}, bad
        assert all(p.message.startswith(f"diagnostics[{k}].witness") for p in problems)


def test_a_failed_check_trace_carries_a_valid_witness():
    mgr = PassManager([PassSpec("block", {"loop": "K", "factor": "KS",
                                          "max_splits": 0})], ctx=N2, check=True)
    with pytest.raises(CheckError) as exc:
        mgr.run(lu_point_ir())
    trace = exc.value.result.trace
    (finding,) = trace["spans"][0]["detail"]["check"]
    assert check(finding["witness"], WITNESS) == []
    assert validate_document(envelope(trace, PIPELINE_TRACE)) == []
    finding["witness"]["loops"] = "K"
    problems = validate_document(envelope(trace, PIPELINE_TRACE))
    assert [p.rule for p in problems] == [RULE_PAYLOAD]
    assert problems[0].message.startswith("spans[0].detail.check[0].witness.loops")
