"""PassManager: spans, trace schema, failure policy, verifier pinpointing."""

from __future__ import annotations

import pytest

from repro.algorithms import lu_point_ir
from repro.errors import PipelineError, TransformError, VerificationError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Var
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.stmt import ArrayDecl, Procedure
from repro.ir.visit import substitute
from repro.pipeline import passes
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import PassManager, PassSpec, run_passes
from repro.pipeline.passes import PassInfo, PassOutcome
from repro.pipeline.verify import DifferentialVerifier
from repro.symbolic.assume import Assumptions


def setter_proc() -> Procedure:
    # pure stores: no reuse, so "scalars" is a clean no-op on this one
    return Procedure(
        "setter",
        ("N",),
        (ArrayDecl("A", (Var("N"),)),),
        (do("I", 1, "N", assign(ref("A", "I"), Var("I") * 2.0)),),
    )


@pytest.fixture
def temp_pass():
    """Register throwaway passes for one test; always deregister."""
    added = []

    def add(name, run, precheck=lambda p, c, o: None, **info_kw):
        passes.register(PassInfo(name, f"test pass {name}", **info_kw), precheck, run)
        added.append(name)

    yield add
    for name in added:
        passes._REGISTRY.pop(name, None)


class TestTraceSchema:
    def test_trace_shape_and_span_chaining(self):
        result = run_passes(
            lu_point_ir(),
            [PassSpec("block", {"loop": "K", "factor": "KS"}), "scalars"],
            ctx=Assumptions().assume_ge("N", 2),
            cache=AnalysisCache(),
            algorithm="lu_nopivot",
        )
        trace = result.trace
        assert trace["algorithm"] == "lu_nopivot"
        assert trace["procedure"] == lu_point_ir().name
        assert [s["pass"] for s in trace["spans"]] == ["block", "scalars"]
        assert trace["verify_enabled"] is False
        assert trace["elapsed_s"] >= 0
        assert set(trace["cache"]) == set(AnalysisCache.REGIONS)
        assert len(trace["spans"]) == 2
        for i, span in enumerate(trace["spans"]):
            assert span["index"] == i
            assert span["status"] in ("applied", "noop", "infeasible", "error")
            assert span["wall_s"] >= 0
            assert span["ir_size_before"] > 0
        # each span consumes exactly what the previous one produced
        assert (
            trace["spans"][1]["input_fingerprint"]
            == trace["spans"][0]["output_fingerprint"]
        )
        assert trace["spans"][0]["input_fingerprint"] == ir_fingerprint(
            lu_point_ir()
        )

    def test_trace_is_json_serializable(self):
        import json

        result = run_passes(setter_proc(), ["scalars"], cache=AnalysisCache())
        json.dumps(result.trace)  # must not raise


class TestInfeasiblePolicy:
    SPECS = [("block", {"loop": "ZZ"}), ("scalars", {})]

    def test_skip_continues_past_infeasible(self):
        result = run_passes(
            setter_proc(), self.SPECS, on_infeasible="skip", cache=AnalysisCache()
        )
        assert [s.status for s in result.spans] == ["infeasible", "noop"]
        assert not result.stopped

    def test_stop_halts_the_pipeline(self):
        result = run_passes(
            setter_proc(), self.SPECS, on_infeasible="stop", cache=AnalysisCache()
        )
        assert [s.status for s in result.spans] == ["infeasible"]
        assert result.stopped

    def test_raise_carries_partial_result(self):
        with pytest.raises(PipelineError, match="infeasible") as ei:
            run_passes(
                setter_proc(),
                self.SPECS,
                on_infeasible="raise",
                cache=AnalysisCache(),
            )
        partial = ei.value.result
        assert partial.spans[0].status == "infeasible"
        assert partial.procedure == setter_proc()

    def test_bad_policy_rejected(self):
        with pytest.raises(PipelineError):
            PassManager(["scalars"], on_infeasible="abort")

    def test_unknown_pass_fails_at_construction(self):
        with pytest.raises(PipelineError, match="unknown pass"):
            PassManager(["nope"])


class TestErrorStatus:
    def test_transform_error_becomes_error_span(self, temp_pass):
        def boom(proc, ctx, options):
            raise TransformError("deliberate failure")

        temp_pass("explode", boom)
        result = run_passes(
            setter_proc(),
            ["explode", "scalars"],
            on_infeasible="skip",
            cache=AnalysisCache(),
        )
        assert result.spans[0].status == "error"
        assert "deliberate failure" in result.spans[0].error
        assert result.spans[1].status == "noop"  # pipeline continued


class TestVerifierPinpointing:
    def test_breaking_pass_is_named(self, temp_pass):
        # "shrink" silently drops the last iteration — a classic
        # miscompile.  The differential verifier must name it.
        def shrink(proc, ctx, options):
            body = tuple(
                substitute(s, {"N": Var("N") - Const(1)}) for s in proc.body
            )
            return PassOutcome(
                Procedure(proc.name, proc.params, proc.arrays, body), True
            )

        temp_pass("shrink", shrink)
        proc = setter_proc()
        verifier = DifferentialVerifier(proc, {"N": 6})
        with pytest.raises(VerificationError, match="'shrink'") as ei:
            run_passes(
                proc,
                ["scalars", "shrink"],
                cache=AnalysisCache(),
                verifier=verifier,
            )
        partial = ei.value.result
        assert partial.spans[0].status == "noop"
        assert partial.spans[1].verify == {
            "ok": False,
            "error": str(ei.value),
        }

    def test_sound_pipeline_verifies_every_applied_span(self):
        proc = lu_point_ir()
        verifier = DifferentialVerifier(proc, {"N": 9, "KS": 4})
        result = run_passes(
            proc,
            [("block", {"loop": "K", "factor": "KS"})],
            ctx=Assumptions().assume_ge("N", 2),
            cache=AnalysisCache(),
            verifier=verifier,
        )
        assert result.spans[0].verify["ok"] is True
        assert verifier.checks_run == 1
        assert result.trace["verify_enabled"] is True


class TestSnapshots:
    def test_snapshot_holds_fortran_listing(self):
        result = run_passes(
            lu_point_ir(),
            [("block", {"loop": "K", "factor": "KS"})],
            ctx=Assumptions().assume_ge("N", 2),
            cache=AnalysisCache(),
            trace_snapshots=True,
        )
        snap = result.spans[0].snapshot
        assert snap and "DO" in snap
        assert result.trace["spans"][0]["snapshot"] == snap
