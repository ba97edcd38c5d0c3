"""``--check`` mode: the PassManager brackets every pass with legality
pre/postchecks and IR re-verification, failing fast with structured
diagnostics, and the CLIs expose it."""

import json
from pathlib import Path

import pytest

from repro.algorithms import lu_point_ir
from repro.check.diagnostics import errors_in
from repro.errors import CheckError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Var
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline import PassManager, PassSpec, derive
from repro.pipeline.cache import AnalysisCache
from repro.cli import main as repro_main
from repro.symbolic.assume import Assumptions

N2 = Assumptions().assume_ge("N", 2)


def test_default_derivations_are_check_clean():
    for name in ("lu_nopivot", "conv", "matmul"):
        result = derive(name, cache=AnalysisCache(), check=True)
        errs = [d for d in result.check_diagnostics
                if d.severity.value == "error"]
        assert errs == [], name


def test_malformed_input_ir_fails_fast():
    bad = Procedure(
        "bad", ("N",), (ArrayDecl("B", (Var("N"),)),),
        (do("I", 1, "N", do("I", 1, "N",
                            assign(ref("B", "I"), Const(0)))),),
    )
    mgr = PassManager([PassSpec("stripmine", {"loop": "I", "factor": 4})],
                      ctx=N2, check=True)
    with pytest.raises(CheckError) as exc:
        mgr.run(bad)
    assert any(d.rule == "ir/shadowed-induction" for d in exc.value.diagnostics)
    assert exc.value.result is not None  # partial result for offline triage


def test_illegal_block_config_fails_fast_with_rule():
    mgr = PassManager(
        [PassSpec("block",
                  {"loop": "K", "factor": "KS", "max_splits": 0})],
        ctx=N2, check=True,
    )
    with pytest.raises(CheckError) as exc:
        mgr.run(lu_point_ir())
    assert any(d.rule == "legal/block-carried-recurrence"
               for d in exc.value.diagnostics)
    span = exc.value.result.spans[0]
    assert span.status == "check-failed"
    assert "check" in span.detail


@pytest.mark.parametrize("name, stmt", [
    ("matmul", "IF (B(K, J) .NE. 0.0) THEN"),
    ("givens", "IF (A(J, L) .NE. 0.0) THEN"),
])
def test_a_refused_block_keeps_the_imperfect_nest_witness(name, stmt):
    with pytest.raises(CheckError) as exc:
        derive(name, ["block"], cache=AnalysisCache(), check=True)
    (d,) = errors_in(exc.value.diagnostics)
    assert d.rule == "legal/block-carried-recurrence"
    assert d.witness == {"kind": "imperfect-nest", "stmt": stmt}


@pytest.mark.parametrize("name", ["lu_nopivot", "lu_pivot"])
def test_a_clean_checked_derive_asks_what_an_unchecked_one_does(name):
    """``block`` is judged on its result, so checking it adds no analysis
    query: the misses are blockbench's pinned unchecked ones."""
    expected = Path(__file__).parents[2] / "benchmarks" / "blockbench" / "expected.json"
    pinned = json.loads(expected.read_text())["cache_misses"][name]
    cache = AnalysisCache()
    derive(name, cache=cache, check=True)
    assert {region: s["misses"] for region, s in cache.stats().items()} == pinned


def test_check_off_does_not_populate_diagnostics():
    result = derive("lu_nopivot", cache=AnalysisCache(), check=False)
    assert result.check_diagnostics == []


def test_pipeline_cli_check_flag_ok(capsys):
    assert repro_main(["pipeline", "-a", "lu_nopivot", "--check"]) == 0
    out = capsys.readouterr().out
    assert "lu_nopivot" in out


@pytest.mark.parametrize("name, passes", [
    ("lu_nopivot", None),
    ("lu_nopivot", ("split", "block", "jam")),
    ("givens", ("givens_opt", "scalars")),
    ("conv", None),
    ("aconv", None),
    ("matmul", None),
])
def test_checked_recipe_is_clean_cold_and_replays_warm(name, passes):
    """A checked derive has no error, and its re-derive against the same
    cache is the same program with every applied pass taken from the memo."""
    cache = AnalysisCache()
    cold = derive(name, passes=passes, cache=cache, check=True)
    assert [d for d in cold.check_diagnostics if d.severity.value == "error"] == []
    warm = derive(name, passes=passes, cache=cache, check=True)
    assert ir_fingerprint(warm.procedure) == ir_fingerprint(cold.procedure)
    applied = [s for s in warm.spans if s.status == "applied"]
    assert applied and all(s.cached for s in applied)


def test_failed_check_trace_publishes_validates_and_flattens(tmp_path):
    """The partial result handed over "for offline triage" can actually be
    written: ``check-failed`` is in the trace's status vocabulary."""
    from repro.artifacts import publish, registry, validate_document
    from repro.pipeline.trace import CHECK_FAILED, SCHEMA

    mgr = PassManager(
        [PassSpec("block", {"loop": "K", "factor": "KS", "max_splits": 0})],
        ctx=N2, check=True,
    )
    with pytest.raises(CheckError) as exc:
        mgr.run(lu_point_ir())
    trace = exc.value.result.trace
    assert [s["status"] for s in trace["spans"]] == [CHECK_FAILED]
    env = publish(str(tmp_path / "t.json"), trace, SCHEMA, producer="test")
    assert validate_document(env) == []
    flat = registry.get(SCHEMA).flatten(trace)
    assert flat["passes.count"] == 1 and "pass:block.wall_s" in flat


def test_pipeline_cli_failed_check_exits_1_with_the_trace_on_disk(
    tmp_path, monkeypatch, capsys
):
    import json

    from repro.artifacts import validate_document
    from repro.pipeline.workloads import get_workload

    block = get_workload("lu_nopivot").pass_options["block"]
    monkeypatch.setitem(block, "max_splits", 0)  # an illegal block config
    path = tmp_path / "t.json"
    assert repro_main(["pipeline", "-a", "lu_nopivot", "-p", "block",
                       "--check", "--trace", str(path)]) == 1
    captured = capsys.readouterr()
    assert "CHECK FAILED" in captured.err
    assert "! 0: block" in captured.out and "check-failed" in captured.out
    env = json.loads(path.read_text())
    assert validate_document(env) == []
    (span,) = env["payload"]["spans"]
    assert span["status"] == "check-failed" and span["detail"]["check"]
