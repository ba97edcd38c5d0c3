"""repro.pipeline.trace: schema round-trip, span ordering, failure spans."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import (
    is_envelope,
    payload_digest,
    payload_of,
    publish,
    schema_id_of,
)
from repro.errors import TransformError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.pipeline import passes
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import run_passes
from repro.pipeline.passes import PassInfo
from repro.pipeline.trace import SCHEMA, build_trace, span_to_dict


def small_proc() -> Procedure:
    return Procedure(
        "setter",
        ("N",),
        (ArrayDecl("A", (Var("N"),)),),
        (do("I", 1, "N", assign(ref("A", "I"), Var("I") * 2.0)),),
    )


@pytest.fixture
def failing_pass():
    """A registered pass whose run always raises TransformError."""

    def run(proc, ctx, options):
        raise TransformError("synthetic failure")

    passes.register(
        PassInfo("always_fails", "test-only failing pass"),
        lambda p, c, o: None,
        run,
    )
    yield "always_fails"
    passes._REGISTRY.pop("always_fails", None)


class TestRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        result = run_passes(small_proc(), ["scalars"], cache=AnalysisCache())
        path = tmp_path / "trace.json"
        publish(str(path), result.trace, SCHEMA, producer="repro.pipeline")
        doc = json.loads(path.read_text())
        assert is_envelope(doc)
        assert doc["digest"] == payload_digest(result.trace)
        assert payload_of(doc) == result.trace
        assert schema_id_of(doc) == SCHEMA

    def test_span_to_dict_fields(self):
        result = run_passes(small_proc(), ["scalars"], cache=AnalysisCache())
        d = span_to_dict(result.spans[0])
        assert set(d) == {
            "index", "pass", "status", "wall_s", "cached",
            "input_fingerprint", "output_fingerprint",
            "ir_size_before", "ir_size_after",
            "detail", "verify", "error", "snapshot",
        }
        # t_start / artifact are deliberately NOT serialized: the first is
        # an absolute perf_counter (obs export only), the second arbitrary
        assert "t_start" not in d and "artifact" not in d

    def test_build_trace_defaults(self):
        trace = build_trace([])
        assert trace["spans"] == []
        assert trace["cache"] == {}
        assert trace["verify_enabled"] is False


class TestSpanOrdering:
    def test_spans_follow_pass_list_order(self):
        result = run_passes(
            small_proc(),
            ["scalars", ("block", {"loop": "ZZ"}), "scalars"],
            cache=AnalysisCache(),
        )
        trace = result.trace
        assert [s["index"] for s in trace["spans"]] == [0, 1, 2]
        assert [s["pass"] for s in trace["spans"]] == [
            "scalars", "block", "scalars"]


class TestFailureSpans:
    def test_infeasible_pass_emits_span(self):
        # "block" on a missing loop: precheck rejects, span still recorded
        result = run_passes(
            small_proc(), [("block", {"loop": "ZZ"})], cache=AnalysisCache()
        )
        (span,) = result.trace["spans"]
        assert span["status"] == "infeasible"
        assert span["detail"]["reason"]
        assert span["input_fingerprint"] == span["output_fingerprint"]

    def test_error_pass_emits_span_with_message(self, failing_pass):
        result = run_passes(small_proc(), [failing_pass], cache=AnalysisCache())
        (span,) = result.trace["spans"]
        assert span["status"] == "error"
        assert "synthetic failure" in span["error"]
        json.dumps(result.trace)  # error spans must stay serializable

    def test_stopped_run_still_traces_attempted_spans(self, failing_pass):
        result = run_passes(
            small_proc(),
            [failing_pass, "scalars"],
            on_infeasible="stop",
            cache=AnalysisCache(),
        )
        assert result.stopped
        assert [s["pass"] for s in result.trace["spans"]] == [failing_pass]
