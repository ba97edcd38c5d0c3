"""repro.perf.db: the sqlite run history."""

from __future__ import annotations

import pytest

from repro.errors import PerfError
from repro.perf.db import PerfDB
from tests.perf.test_ingest import enveloped, pipeline_doc


@pytest.fixture
def db(tmp_path):
    with PerfDB(str(tmp_path / "perf.db")) as handle:
        yield handle


class TestRecord:
    def test_record_returns_the_run_row(self, db):
        run = db.record(pipeline_doc(), label="main", git_sha="abc1234",
                        source="t.json", created_s=100.0)
        assert run["id"] == 1
        assert run["label"] == "main"
        assert run["artifact_schema"] == "repro.pipeline/1"
        assert run["git_sha"] == "abc1234"
        assert run["created_s"] == 100.0
        assert run["metrics"] == len(db.metrics_for(1)) > 0

    def test_same_artifact_records_same_digest(self, db):
        a = db.record(pipeline_doc(), created_s=1.0)
        b = db.record(pipeline_doc(), created_s=2.0)
        assert a["artifact_digest"] == b["artifact_digest"]
        assert db.metrics_for(a["id"]) == db.metrics_for(b["id"])

    def test_zero_metric_artifact_is_refused(self, db):
        with pytest.raises(PerfError):
            db.record(enveloped({"schema": "repro.pipeline/1", "spans": "nope"}))

    def test_unknown_schema_is_refused(self, db):
        with pytest.raises(PerfError):
            db.record(enveloped({"schema": "what/0"}))


class TestSelectors:
    def test_id_label_latest(self, db):
        db.record(pipeline_doc(block_wall=0.1), label="main", created_s=1.0)
        db.record(pipeline_doc(block_wall=0.2), label="work", created_s=2.0)
        db.record(pipeline_doc(block_wall=0.3), label="main", created_s=3.0)
        assert db.run(2)["label"] == "work"
        assert db.run("2")["label"] == "work"
        assert db.run("latest")["id"] == 3
        assert db.run("latest~1")["id"] == 2
        assert db.run("latest~2")["id"] == 1
        # a label resolves to its most recent run
        assert db.run("main")["id"] == 3

    def test_missing_selector_raises(self, db):
        with pytest.raises(PerfError):
            db.run("nosuch")
        with pytest.raises(PerfError):
            db.run(99)
        with pytest.raises(PerfError):
            db.run("latest~bogus")


class TestHistory:
    def test_history_is_oldest_first(self, db):
        for i, wall in enumerate((0.1, 0.2, 0.3)):
            db.record(pipeline_doc(block_wall=wall), created_s=float(i))
        points = db.history("pass:block.wall_s")
        assert [p["value"] for p in points] == [0.1, 0.2, 0.3]
        assert [p["run_id"] for p in points] == [1, 2, 3]

    def test_history_limit_keeps_the_newest(self, db):
        for i in range(5):
            db.record(pipeline_doc(block_wall=float(i)), created_s=float(i))
        points = db.history("pass:block.wall_s", limit=2)
        assert [p["value"] for p in points] == [3.0, 4.0]

    def test_metric_names_like(self, db):
        db.record(pipeline_doc(), created_s=1.0)
        names = db.metric_names(like="pass:%")
        assert "pass:block.wall_s" in names
        assert "elapsed_s" not in names

    def test_runs_listing(self, db):
        db.record(pipeline_doc(), label="a", created_s=1.0)
        db.record(pipeline_doc(), label="b", created_s=2.0)
        assert [r["label"] for r in db.runs()] == ["a", "b"]
        assert [r["label"] for r in db.runs(limit=1)] == ["b"]


class TestDurability:
    def test_reopen_keeps_runs(self, tmp_path):
        path = str(tmp_path / "perf.db")
        with PerfDB(path) as db:
            db.record(pipeline_doc(), label="main", created_s=1.0)
        with PerfDB(path) as db:
            assert db.run("main")["id"] == 1

    def test_non_database_file_is_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"this is not sqlite at all, not even close....")
        with pytest.raises(PerfError, match="not a perf database"):
            PerfDB(str(path))

    def test_schema_version_mismatch_is_an_error(self, tmp_path):
        path = str(tmp_path / "perf.db")
        with PerfDB(path) as db:
            db._conn.execute(
                "UPDATE meta SET value='99' WHERE key='schema_version'")
        with pytest.raises(PerfError, match="schema v99"):
            PerfDB(path)

    def test_default_path_is_next_to_the_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        with PerfDB() as db:
            assert db.path == tmp_path / "cache" / "perf.db"
