"""run_batch and the ``repro.serve/1`` report: shape, validation, obs."""

from __future__ import annotations

import json

from repro.artifacts import (
    envelope,
    is_envelope,
    payload_of,
    publish,
    registry,
    validate_document,
)
from repro.artifacts.validate import RULE_STALE_VERSION
from repro.obs import core as obs_core
from repro.serve.jobs import JobSpec
from repro.serve.service import SCHEMA, run_batch
from repro.serve.store import ArtifactStore

validate_payload = registry.get(SCHEMA).validate_payload


def probe(**options) -> JobSpec:
    options.setdefault("action", "ok")
    return JobSpec(kind="probe", options=options, timeout_s=10.0)


class TestRunBatch:
    def test_report_is_valid_and_complete(self):
        report = run_batch(
            [probe(value=1), probe(value=2)],
            workers=2,
            meta={"tool": "test", "build": 7},
        )
        assert validate_payload(report) == []
        assert report["schema"] == SCHEMA
        assert report["meta"] == {"tool": "test", "build": "7"}  # stringified
        assert report["summary"]["computed"] == 2
        assert report["summary"]["ok"] == report["summary"]["total"] == 2
        assert report["pool"]["workers"] == 2
        assert report["pool"]["utilization"] is not None
        assert report["store"] == {"enabled": False}
        for job in report["jobs"]:
            assert job["status"] == "computed"
            assert job["wall_s"] > 0
            assert job["result"]["probe"] in (1, 2)

    def test_one_row_per_deduplicated_job(self):
        spec = probe(value="same")
        report = run_batch([spec, spec, spec], workers=1)
        assert validate_payload(report) == []
        assert len(report["jobs"]) == 1
        assert report["jobs"][0]["submissions"] == 3
        assert report["pool"]["coalesced"] == 2

    def test_failures_carry_their_error_and_flip_ok(self):
        report = run_batch(
            [probe(action="terminal"), probe(value="fine")],
            workers=1,
            max_retries=0,
        )
        assert validate_payload(report) == []
        assert report["summary"]["failed"] == 1
        assert report["summary"]["ok"] == 1
        by_status = {j["status"]: j for j in report["jobs"]}
        assert "PipelineError" in by_status["failed"]["error"]
        assert by_status["computed"]["error"] is None

    def test_store_run_reports_worker_writes_and_then_hits(self, tmp_path):
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        cold = run_batch([spec], workers=1, store=ArtifactStore(str(tmp_path)))
        assert cold["jobs"][0]["status"] == "computed"
        assert cold["jobs"][0]["stored"] is True
        # the write happened in the worker; the report folds it in
        assert cold["store"]["writes"] == 1
        assert cold["store"]["entries"] == 1

        warm = run_batch([spec], workers=1, store=ArtifactStore(str(tmp_path)))
        assert warm["jobs"][0]["status"] == "hit"
        assert warm["jobs"][0]["attempts"] == 0
        assert warm["store"]["hits"] == 1
        assert warm["store"]["writes"] == 0
        assert (
            warm["jobs"][0]["fingerprint"] == cold["jobs"][0]["fingerprint"]
        )

    def test_result_rows_elide_the_ir_payload(self, tmp_path):
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        report = run_batch([spec], workers=1, store=ArtifactStore(str(tmp_path)))
        row = report["jobs"][0]
        assert "ir" not in row["result"]  # reports stay skimmable
        assert row["fingerprint"]  # ...but the identity survives

    def test_obs_counters_mirror_the_batch(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        with obs_core.enabled() as o:
            run_batch([spec], workers=1, store=store)
            run_batch([spec], workers=1, store=ArtifactStore(str(tmp_path)))
        assert o.counters["serve.job.computed"] == 1
        assert o.counters["serve.job.hit"] == 1
        assert o.counters["serve.store.miss"] == 1
        assert o.counters["serve.store.hit"] == 1
        assert o.histograms["serve.pool.utilization"].count == 2
        assert any(s.cat == "serve.job" for s in o.spans)


class TestValidateReport:
    def good(self) -> dict:
        return run_batch([probe(value="v")], workers=1)

    def test_accepts_the_real_thing(self):
        assert validate_payload(self.good()) == []

    def test_rejects_non_objects(self):
        assert validate_payload([]) == ["payload: want object, got list"]

    def test_rejects_wrong_schema(self):
        # schema identity is the envelope layer's job now
        doc = self.good()
        doc["schema"] = "repro.serve/99"
        problems = validate_document(envelope(doc, producer="test"))
        assert [p.rule for p in problems] == [RULE_STALE_VERSION]

    def test_rejects_missing_sections(self):
        doc = self.good()
        del doc["pool"]
        del doc["jobs"]
        problems = validate_payload(doc)
        assert "pool: missing" in problems
        assert "jobs: missing" in problems

    def test_rejects_unknown_status(self):
        doc = self.good()
        doc["jobs"][0]["status"] = "vanished"
        assert any(p.startswith("jobs[0].status: want one of")
                   for p in validate_payload(doc))

    def test_rejects_failure_without_error(self):
        doc = self.good()
        doc["jobs"][0]["status"] = "failed"
        doc["jobs"][0]["error"] = None
        problems = validate_payload(doc)
        assert any("carries no error" in p for p in problems)

    def test_rejects_summary_mismatch(self):
        doc = self.good()
        doc["summary"]["computed"] = 5
        doc["summary"]["total"] = 9
        problems = validate_payload(doc)
        assert any("summary.total" in p for p in problems)
        assert any("summary.computed" in p for p in problems)

    def test_rejects_missing_job_fields(self):
        doc = self.good()
        del doc["jobs"][0]["wall_s"]
        assert "jobs[0].wall_s: missing" in validate_payload(doc)


def test_write_report_roundtrips(tmp_path):
    report = run_batch([probe(value="v")], workers=1)
    path = tmp_path / "report.json"
    publish(str(path), report, producer="repro.serve")
    doc = json.loads(path.read_text())
    assert is_envelope(doc)
    assert payload_of(doc) == json.loads(json.dumps(report))
    assert path.read_text().endswith("\n")
