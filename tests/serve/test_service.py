"""What a batch reports: job rows (``JobOutcome.to_dict``), ``pool.stats()``
and the observer — each fact recorded once, no ``repro.serve/1`` report."""

from __future__ import annotations

from repro.artifacts import envelope, registry, validate_document
from repro.artifacts.validate import RULE_UNKNOWN_SCHEMA
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.serve.jobs import JobSpec
from repro.serve.pool import CRASH_RETRIES, OK_STATUSES, WorkerPool
from repro.serve.store import ArtifactStore

#: every key of a job row, in order — the daemon's reply adds two more
ROW_KEYS = [
    "id", "label", "kind", "workload", "digest", "status", "attempts",
    "submissions", "worker", "wall_s", "queue_wait_s", "stored",
    "fingerprint", "error", "result",
]


def probe(**options) -> JobSpec:
    options.setdefault("action", "ok")
    return JobSpec(kind="probe", options=options, timeout_s=10.0)


def run_batch(specs, workers=1, store=None):
    """What ``serve submit|batch`` do: submit, drain, rows + pool stats."""
    with WorkerPool(workers=workers, store=store) as pool:
        handles = [pool.submit(spec) for spec in specs]
        pool.drain()
        outcomes = {h.outcome.job_id: h.outcome for h in handles}
        rows = [outcome.to_dict() for outcome in outcomes.values()]
        return rows, pool.stats()


class TestRunBatch:
    def test_report_is_valid_and_complete(self):
        rows, stats = run_batch([probe(value=1), probe(value=2)], workers=2)
        assert [row["id"] for row in rows] == [0, 1]
        for row in rows:
            assert list(row) == ROW_KEYS
            assert row["status"] == "computed"
            assert row["kind"] == "probe" and row["label"] == "probe:-"
            assert row["wall_s"] > 0
            assert row["result"]["probe"] in (1, 2)
            assert row["stored"] is False and row["fingerprint"] is None
        assert stats["jobs"] == {"computed": 2}
        assert stats["workers"] == 2
        assert 0 < stats["utilization"] <= 1
        assert stats["elapsed_s"] > 0

    def test_one_row_per_deduplicated_job(self):
        spec = probe(value="same")
        rows, stats = run_batch([spec, spec, spec])
        assert len(rows) == 1
        assert rows[0]["submissions"] == 3
        assert stats["coalesced"] == 2
        assert stats["jobs"] == {"computed": 1}

    def test_failures_carry_their_error_and_flip_ok(self):
        rows, stats = run_batch([probe(action="raise"), probe(value="fine")])
        assert stats["jobs"] == {"failed": 1, "computed": 1}
        assert stats["respawns"] == 0  # a raise costs no worker
        by_status = {row["status"]: row for row in rows}
        assert by_status["failed"]["attempts"] == 1
        assert by_status["failed"]["error"] == "RuntimeError: probe raised"
        assert by_status["failed"]["result"] is None
        assert by_status["computed"]["error"] is None  # the pool survived
        assert [row["status"] in OK_STATUSES for row in rows] == [False, True]

    def test_how_an_attempt_ends_decides_the_row(self, tmp_path):
        """A raise and a missed deadline end the job at once; only a dead
        worker earns a re-run, at most ``CRASH_RETRIES`` of them."""
        hang = JobSpec(kind="probe", options={"action": "hang", "hang_s": 60.0},
                       timeout_s=0.25)
        specs = [probe(action="raise"), hang, probe(action="kill"),
                 probe(action="flaky", flag_file=str(tmp_path / "flag"))]
        with obs_core.enabled() as o:
            rows, stats = run_batch(specs)
        assert [(row["status"], row["attempts"]) for row in rows] == [
            ("failed", 1), ("timeout", 1),
            ("failed", 1 + CRASH_RETRIES), ("retried", 2)]
        # the timeout's kill, every death, and nothing for the raise
        assert stats["respawns"] == 1 + (1 + CRASH_RETRIES) + 1
        assert o.counters["serve.job.retry"] == CRASH_RETRIES + 1
        assert "max_retries" not in stats and "backoff_s" not in stats

    def test_store_run_reports_worker_writes_and_then_hits(self, tmp_path):
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        store = ArtifactStore(str(tmp_path))
        (cold,), _ = run_batch([spec], store=store)
        assert cold["status"] == "computed"
        assert cold["stored"] is True  # the write happened in the worker
        assert store.stats()["writes"] == 0
        assert store.stats()["entries"] == 1

        store = ArtifactStore(str(tmp_path))
        (warm,), stats = run_batch([spec], store=store)
        assert warm["status"] == "hit"
        assert warm["attempts"] == 0 and warm["worker"] is None
        assert warm["stored"] is False
        assert store.stats()["hits"] == 1
        assert store.stats()["entries"] == 1
        assert stats["jobs"] == {"hit": 1} and stats["busy_s"] == 0
        for key in ("digest", "fingerprint", "result"):
            assert warm[key] == cold[key]

    def test_result_rows_elide_the_ir_payload(self, tmp_path):
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        with WorkerPool(workers=1, store=ArtifactStore(str(tmp_path))) as pool:
            (outcome,) = pool.run([spec])
        row = outcome.to_dict()
        assert "DO " in outcome.value["ir"]
        assert "ir" not in row["result"]  # rows stay skimmable
        assert row["fingerprint"] == outcome.value["fingerprint"]
        assert row["result"] == {k: v for k, v in outcome.value.items()
                                 if k != "ir"}

    def test_obs_counters_mirror_the_batch(self, tmp_path):
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        specs = [spec, probe(value=1), probe(action="raise")]
        with obs_core.enabled() as o:
            _, cold = run_batch(specs, store=ArtifactStore(str(tmp_path)))
            _, warm = run_batch(specs, store=ArtifactStore(str(tmp_path)))
        assert cold["jobs"] == {"computed": 2, "failed": 1}
        assert warm["jobs"] == {"hit": 2, "failed": 1}
        assert o.counters["serve.job.computed"] == 2
        assert o.counters["serve.job.hit"] == 2
        assert o.counters["serve.job.failed"] == 2
        assert o.counters["serve.store.miss"] == 4  # 3 cold + the failure
        assert o.counters["serve.store.hit"] == 2
        # one observation per executed job: hits never reach a worker
        assert o.histograms["serve.job_wall_s"].count == 4
        assert o.histograms["serve.queue_wait_s"].count == 4
        # one span per resolved job, hit or not
        spans = [s.name for s in o.spans if s.cat == "serve.job"]
        assert sorted(spans) == sorted(2 * [f"job:{s.display}" for s in specs])


class TestValidateReport:
    """A batch's durable, validated record is its ``--obs`` profile."""

    def test_accepts_the_real_thing(self):
        with obs_core.enabled() as o:
            run_batch([probe(value="v")])
        doc = obs_export.metrics(o, meta={"tool": "test"})
        assert registry.get(registry.OBS_METRICS).validate_payload(doc) == []
        assert doc["counters"]["serve.job.computed"] == 1
        assert doc["histograms"]["serve.job_wall_s"]["count"] == 1
        assert doc["spans"]["job:probe:-"]["count"] >= 1

    def test_rejects_wrong_schema(self):
        # there is no reader for the report old batches wrote
        old = {"jobs": [], "summary": {"total": 0}}
        problems = validate_document(envelope(old, "repro.serve/1"))
        assert [p.rule for p in problems] == [RULE_UNKNOWN_SCHEMA]
