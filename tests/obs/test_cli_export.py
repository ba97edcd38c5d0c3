"""``python -m repro obs`` and the exporters, run in-process on real workloads."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.artifacts import (
    envelope,
    is_envelope,
    payload_of,
    registry,
    validate_document,
)
from repro.artifacts.validate import RULE_STALE_VERSION
from repro.obs import core, export

validate_payload = registry.get(export.SCHEMA).validate_payload


def main(argv: list) -> int:
    return cli.main(["obs", *argv])


class TestChromeTrace:
    def test_event_shape(self):
        o = core.Obs()
        with o.span("outer", cat="pipeline"):
            with o.span("inner"):
                pass
        doc = export.chrome_trace(o)
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert {m["name"] for m in metas} == {"process_name", "thread_name"}
        assert [e["name"] for e in xs] == ["outer", "inner"]  # sorted by ts
        for e in xs:
            assert e["dur"] > 0 and e["ts"] >= 0
            assert e["pid"] == 1 and e["tid"] == 1
        assert doc["otherData"]["schema"] == export.SCHEMA

    def test_uncategorized_span_defaults_cat(self):
        o = core.Obs()
        with o.span("x"):
            pass
        (event,) = [e for e in export.chrome_trace(o)["traceEvents"] if e["ph"] == "X"]
        assert event["cat"] == "repro"


class TestValidateMetrics:
    def test_minimal_valid_doc(self):
        doc = export.metrics(core.Obs())
        assert validate_payload(doc) == []

    def test_wrong_schema_rejected(self):
        # schema identity is the envelope layer's job now
        doc = export.metrics(core.Obs())
        problems = validate_document(envelope(doc, "repro.obs/99"))
        assert [p.rule for p in problems] == [RULE_STALE_VERSION]

    def test_non_integer_counter_rejected(self):
        doc = export.metrics(core.Obs())
        doc["counters"]["bad"] = 1.5
        assert validate_payload(doc) == [
            "counters.bad: want integer, got number"]

    def test_attribution_sum_mismatch_rejected(self):
        o = core.Obs()
        doc = export.metrics(o)
        doc["attribution"] = {
            "rows": [{"loop": "I", "statement": "A(I)", "array": "A",
                      "accesses": 2, "misses": 1, "writebacks": 0,
                      "tlb_misses": 0, "writes": 0}],
            "by_loop": {"I": {"accesses": 2, "misses": 1, "writebacks": 0,
                              "tlb_misses": 0, "writes": 0}},
            "by_statement": {"I: A(I)": {"accesses": 2, "misses": 1,
                                         "writebacks": 0, "tlb_misses": 0,
                                         "writes": 0}},
            "by_array": {"A": {"accesses": 2, "misses": 1, "writebacks": 0,
                               "tlb_misses": 0, "writes": 0}},
            "totals": {"accesses": 2, "misses": 0, "writebacks": 0,
                       "tlb_misses": 0, "writes": 0},  # misses disagree
        }
        errors = validate_payload(doc)
        assert any("misses" in e for e in errors)

    def test_machine_cache_mismatch_rejected(self):
        from repro.machine.cache import CacheStats

        doc = export.metrics(
            core.Obs(), machine_cache=CacheStats(accesses=10, misses=3)
        )
        doc["attribution"] = {
            "rows": [], "by_loop": {}, "by_statement": {}, "by_array": {},
            "totals": {"accesses": 9, "misses": 3, "writebacks": 0,
                       "tlb_misses": 0, "writes": 0},
        }
        errors = validate_payload(doc)
        assert any("machine cache accesses" in e for e in errors)


@pytest.mark.slow
class TestCliEndToEnd:
    def test_conv_writes_valid_artifacts(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        rc = main([
            "conv",
            "--chrome-trace", str(trace_path),
            "--out", str(metrics_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro.obs profile — conv" in out
        assert "loops (by misses):" in out

        trace = json.loads(trace_path.read_text())
        names = [e["name"] for e in trace["traceEvents"] if e["ph"] == "X"]
        assert "pipeline:conv" in names
        assert any(n.startswith("pass:") for n in names)
        assert any(n.startswith("trace:") for n in names)

        env = json.loads(metrics_path.read_text())
        assert is_envelope(env) and validate_document(env) == []
        doc = payload_of(env)
        assert doc["meta"]["workload"] == "conv"
        # the acceptance invariant, re-checked from the written artifact
        totals = doc["attribution"]["totals"]
        assert totals["accesses"] == doc["machine"]["cache"]["accesses"]
        assert totals["misses"] == doc["machine"]["cache"]["misses"]
        # conv's split/jam/scalars pipeline leans on Fourier–Motzkin queries
        assert doc["counters"]["fm.direction.queries"] > 0
        assert doc["counters"]["pipeline.pass.applied"] == 3

    def test_custom_passes_and_sizes(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        rc = main([
            "conv", "--passes", "split", "--sizes", "N1=16,N2=12,N3=14",
            "--out", str(metrics_path),
        ])
        assert rc == 0
        doc = payload_of(json.loads(metrics_path.read_text()))
        assert doc["meta"]["passes"] == "['split']"

    def test_invalid_profile_is_written_for_inspection_never_stored(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.artifacts import list_artifacts
        from repro.serve.store import ArtifactStore

        honest = export.metrics

        def lying(*args, **kwargs):
            doc = honest(*args, **kwargs)
            doc["attribution"]["totals"]["misses"] += 1
            return doc

        monkeypatch.setattr(export, "metrics", lying)
        out, store_dir = tmp_path / "m.json", tmp_path / "cache"
        rc = main(["conv", "--passes", "split", "--out", str(out),
                   "--store", "--store-dir", str(store_dir)])
        assert rc == 1
        captured = capsys.readouterr()
        assert "METRICS INVALID: attribution rows sum misses" in captured.err
        assert f"metrics written to {out}" in captured.out
        assert "published" not in captured.out
        env = json.loads(out.read_text())
        assert is_envelope(env) and validate_document(env) != []
        assert list_artifacts(ArtifactStore(str(store_dir))) == []


class TestCliErrors:
    def test_list_exits_zero(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "lu_nopivot" in out and "conv" in out

    def test_missing_workload_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "workload name" in capsys.readouterr().err

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["no_such_workload"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_sizes_is_usage_error(self, capsys):
        assert main(["conv", "--sizes", "N1"]) == 2
        assert "--sizes" in capsys.readouterr().err

    def test_unknown_size_is_usage_error(self, capsys):
        assert main(["lu_nopivot", "--sizes", "Q=3"]) == 2
        err = capsys.readouterr().err
        assert "'Q=3'" in err and "KS, N" in err


@pytest.mark.slow
class TestParVerdictColumn:
    def test_loop_table_carries_parallelism_verdicts(self, capsys):
        # satellite: the per-loop miss table names each nest's repro.par
        # classification so hot serial loops are visible at a glance
        rc = main(["matmul"])
        assert rc == 0
        out = capsys.readouterr().out
        loop_lines = [
            line for line in
            out.split("loops (by misses):")[1].split("statements")[0].splitlines()
            if "misses" in line
        ]
        tagged = [l for l in loop_lines if "[parallel]" in l
                  or "[reduction]" in l or "[serial]" in l]
        assert tagged, out
