"""The run history: recorded runs are ``repro.perf.baseline/1``
envelopes in the artifact store, read back through ``store.scan()``."""

from __future__ import annotations

import json
import multiprocessing
from collections import Counter

import pytest

from repro import cli
from repro.artifacts import registry
from repro.errors import PerfError
from repro.perf import ingest
from repro.serve.store import SCHEMA_VERSION, ArtifactStore
from tests.perf.test_ingest import enveloped, pipeline_doc


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "store"))


def record(store, doc, **kw):
    return ingest.run_of(ingest.record(store, doc, **kw))


def _record_in_child(root: str, label: str) -> None:
    ingest.record(ArtifactStore(root), pipeline_doc(), label=label)


class TestRecord:
    def test_record_returns_the_run_row(self, store):
        run = record(store, pipeline_doc(), label="main", git_sha="abc1234",
                     source="t.json", created_s=100.0)
        assert run["label"] == "main"
        assert run["artifact_schema"] == "repro.pipeline/1"
        assert run["artifact_digest"] == pipeline_doc()["digest"]
        assert run["git_sha"] == "abc1234"
        assert run["source"] == "t.json"
        assert run["created_s"] == 100.0
        assert run["metrics"] == ingest.flatten(pipeline_doc())
        assert ingest.runs(store) == [run]

    def test_same_artifact_records_same_digest(self, store):
        """One artifact recorded twice: one artifact digest, two runs."""
        a = record(store, pipeline_doc(), created_s=1.0)
        b = record(store, pipeline_doc(), created_s=2.0)
        assert a["artifact_digest"] == b["artifact_digest"]
        assert a["metrics"] == b["metrics"]
        assert a["id"] != b["id"]
        assert [r["id"] for r in ingest.runs(store)] == [a["id"], b["id"]]

    def test_zero_metric_artifact_is_refused(self, store):
        with pytest.raises(PerfError):
            ingest.record(store, enveloped({"spans": "nope"}))
        assert ingest.runs(store) == []

    def test_unknown_schema_is_refused(self, store):
        with pytest.raises(PerfError):
            ingest.record(store, enveloped({}, "what/0"))

    def test_two_processes_recording_at_once_both_land(self, store):
        ctx = multiprocessing.get_context("spawn")
        procs = [ctx.Process(target=_record_in_child,
                             args=(str(store.root), label))
                 for label in ("a", "b")]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
        assert [p.exitcode for p in procs] == [0, 0]
        assert sorted(r["label"] for r in ingest.runs(store)) == ["a", "b"]


class TestSelectors:
    def test_id_label_latest(self, store):
        """A run's id is its envelope digest; any unique prefix selects it."""
        first = record(store, pipeline_doc(block_wall=0.1), label="main",
                       created_s=1.0)
        work = record(store, pipeline_doc(block_wall=0.2), label="work",
                      created_s=2.0)
        last = record(store, pipeline_doc(block_wall=0.3), label="main",
                      created_s=3.0)
        history = ingest.runs(store)
        assert ingest.select(history, work["id"][:8]) == work
        assert ingest.select(history, "latest") == last
        assert ingest.select(history, "latest~1") == work
        assert ingest.select(history, "latest~2") == first
        # a label resolves to its most recent run
        assert ingest.select(history, "main") == last

    def test_an_all_digit_label_is_selectable(self, store):
        run = record(store, pipeline_doc(), label="2024", created_s=1.0)
        assert ingest.select(ingest.runs(store), "2024") == run

    def test_missing_selector_raises(self, store):
        record(store, pipeline_doc(), created_s=1.0)
        history = ingest.runs(store)
        for selector in ("nosuch", "latest~1", "latest~bogus", "ffffffffffff"):
            with pytest.raises(PerfError):
                ingest.select(history, selector)

    def test_ambiguous_digest_prefix_raises(self, store):
        for i in range(17):  # 17 digests, 16 hex digits: two share one
            record(store, pipeline_doc(), created_s=float(i))
        history = ingest.runs(store)
        digit, count = Counter(r["id"][0] for r in history).most_common(1)[0]
        assert count > 1
        with pytest.raises(PerfError, match="ambiguous"):
            ingest.select(history, digit)


class TestHistory:
    def test_history_is_oldest_first(self, store, capsys):
        """By ``created_s``, whatever order the store files scan in."""
        for created, wall in ((3.0, 0.3), (1.0, 0.1), (2.0, 0.2)):
            record(store, pipeline_doc(block_wall=wall), created_s=created)
        assert [r["created_s"] for r in ingest.runs(store)] == [1.0, 2.0, 3.0]
        assert cli.main(["perf", "trend", "pass:block.wall_s", "--json",
                         "--store-dir", str(store.root)]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["value"] for p in points] == [0.1, 0.2, 0.3]

    def test_history_limit_keeps_the_newest(self, store, capsys):
        for i in range(5):
            record(store, pipeline_doc(block_wall=float(i)), created_s=float(i))
        assert cli.main(["perf", "trend", "pass:block.wall_s", "--json",
                         "--limit", "2", "--store-dir", str(store.root)]) == 0
        points = json.loads(capsys.readouterr().out)["points"]
        assert [p["value"] for p in points] == [3.0, 4.0]

    def test_metric_names_like(self, store, capsys):
        """``trend --list`` takes the globs ``--metrics`` takes."""
        record(store, pipeline_doc(), created_s=1.0)
        assert cli.main(["perf", "trend", "pass:*,passes.*", "--list",
                         "--store-dir", str(store.root)]) == 0
        names = capsys.readouterr().out.split()
        assert "pass:block.wall_s" in names and "passes.count" in names
        assert "elapsed_s" not in names

    def test_runs_listing(self, store, capsys):
        record(store, pipeline_doc(), label="a", created_s=1.0)
        record(store, pipeline_doc(), label="b", created_s=2.0)
        assert [r["label"] for r in ingest.runs(store)] == ["a", "b"]
        assert cli.main(["perf", "runs", "--limit", "1", "--json",
                         "--store-dir", str(store.root)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["label"] for r in rows] == ["b"]
        assert rows[0]["metrics"] == len(ingest.flatten(pipeline_doc()))

    def test_job_results_are_not_runs(self, store):
        store.put(("derive", "fp"), {"fingerprint": "fp"})
        record(store, pipeline_doc(), created_s=1.0)
        assert len(ingest.runs(store)) == 1


class TestDurability:
    def test_reopen_keeps_runs(self, store):
        run = record(store, pipeline_doc(), label="main", created_s=1.0)
        again = ArtifactStore(str(store.root))
        assert ingest.select(ingest.runs(again), "main") == run

    def test_non_database_file_is_rejected(self, store, capsys):
        """A bit-flipped run entry is skipped and counted: ``perf runs``
        exits 0 with one run fewer."""
        record(store, pipeline_doc(), label="kept", created_s=1.0)
        flipped = record(store, pipeline_doc(), label="flipped", created_s=2.0)
        path = store.path_for(
            ("artifact", registry.PERF_BASELINE, flipped["id"]))
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40
        path.write_bytes(bytes(blob))
        assert [r["label"] for r in ingest.runs(store)] == ["kept"]
        assert store.corrupt == 1
        assert cli.main(["perf", "runs", "--store-dir", str(store.root)]) == 0
        captured = capsys.readouterr()
        assert "[kept]" in captured.out and "[flipped]" not in captured.out
        assert "skipped 1 corrupt store entry" in captured.err

    def test_schema_version_mismatch_is_an_error(self, store):
        """Runs live under the store's schema version: a store opened at
        another version holds none, and selecting one is an error."""
        record(store, pipeline_doc(), label="main", created_s=1.0)
        bumped = ArtifactStore(str(store.root), schema_version=SCHEMA_VERSION + 1)
        assert ingest.runs(bumped) == []
        with pytest.raises(PerfError, match="no recorded run"):
            ingest.select(ingest.runs(bumped), "main")

    def test_default_path_is_next_to_the_store(self, tmp_path, monkeypatch, capsys):
        """Without ``--store-dir`` runs land in the default store."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(pipeline_doc()))
        assert cli.main(["perf", "record", str(path), "--label", "x"]) == 0
        assert [r["label"] for r in ingest.runs(ArtifactStore())] == ["x"]
        assert ArtifactStore().root == tmp_path / "cache"

    def test_read_only_store_root_records_nothing(self, tmp_path, monkeypatch,
                                                  capsys):
        """``perf record`` into a store it cannot write exits 2 and writes
        neither a store entry nor its ``--out`` file."""
        import errno

        from repro.serve import store as store_mod

        root = tmp_path / "ro"
        root.mkdir()
        root.chmod(0o555)
        # root ignores mode bits: fail the write the way a read-only mount does
        def refuse(*args, **kwargs):
            raise OSError(errno.EROFS, "Read-only file system")

        monkeypatch.setattr(store_mod.tempfile, "mkstemp", refuse)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(pipeline_doc()))
        out = tmp_path / "run.json"
        try:
            assert cli.main(["perf", "record", str(path), "--store-dir",
                             str(root), "--out", str(out)]) == 2
        finally:
            root.chmod(0o755)
        assert "cannot record a run" in capsys.readouterr().err
        assert not out.exists()
        assert list(root.rglob("*.art")) == []
