"""``python -m repro serve``: submit/batch/stats/gc, exit codes, rows."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.artifacts import (
    is_envelope,
    payload_of,
    schema_id_of,
    validate_document,
)
from repro.artifacts.registry import SERVE_STORE
from repro.serve.store import ArtifactStore


def main(argv: list) -> int:
    return cli.main(["serve", *argv])


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "cache")


def submit(store_dir, *extra) -> int:
    return main(["submit", "matmul", "--workers", "1",
                 "--store-dir", store_dir, *extra])


def json_rows(text: str) -> list[dict]:
    """The rows ``--json`` printed (other stdout lines are notices)."""
    return [json.loads(line) for line in text.splitlines()
            if line.startswith("{")]


class TestSubmit:
    def test_cold_then_warm_writes_a_valid_report(self, store_dir, tmp_path, capsys):
        """The batch's report: ``--json`` rows on stdout, and the ``--obs``
        profile as its validated artifact."""
        obs = tmp_path / "obs.json"
        assert submit(store_dir, "--json", "--obs", str(obs)) == 0
        (cold,) = json_rows(capsys.readouterr().out)
        assert cold["status"] == "computed" and cold["stored"] is True
        assert "ir" not in cold["result"]
        env = json.loads(obs.read_text())
        assert is_envelope(env) and validate_document(env) == []
        assert payload_of(env)["counters"]["serve.job.computed"] == 1

        assert submit(store_dir, "--json") == 0  # a fresh pool and store
        (warm,) = json_rows(capsys.readouterr().out)
        assert warm["status"] == "hit" and warm["attempts"] == 0
        for key in ("digest", "fingerprint", "result"):
            assert warm[key] == cold[key]

    def test_text_output_keeps_its_lines(self, store_dir, capsys):
        assert submit(store_dir) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["computed", "derive:matmul"]
        assert lines[1].startswith("1 job(s): 1 computed in ")
        assert "pool utilization" in lines[1]
        assert lines[2].startswith("  worker 0: 1 job(s), ")
        assert lines[3].startswith("store: 0 hits / 1 misses, 1 writes, "
                                   "1 entries")
        assert submit(store_dir) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:2] == ["hit", "derive:matmul"]
        assert lines[-1].startswith("store: 1 hits / 0 misses, 0 writes, ")

    def test_repeat_submissions_deduplicate(self, store_dir, capsys):
        assert submit(store_dir, "--repeat", "3", "--no-store") == 0
        text = capsys.readouterr().out
        assert "x3" in text  # one row, three submissions
        assert "1 job(s): 1 computed" in text

    def test_unknown_workload_is_a_usage_error(self, store_dir, capsys):
        assert main(["submit", "no_such_workload",
                     "--store-dir", store_dir]) == 2
        assert "error:" in capsys.readouterr().err

    def test_obs_profile_written(self, store_dir, tmp_path):
        """The profile carries what the deleted report re-counted: status
        counts, one latency observation per executed job, utilization."""
        obs_path = tmp_path / "obs.json"
        assert main(["submit", "matmul", "aconv", "--workers", "2",
                     "--no-store", "--obs", str(obs_path)]) == 0
        env = json.loads(obs_path.read_text())
        assert is_envelope(env) and validate_document(env) == []
        doc = payload_of(env)
        assert doc["counters"]["serve.job.computed"] == 2
        for name in ("serve.job_wall_s", "serve.queue_wait_s"):
            assert doc["histograms"][name]["count"] == 2
        assert doc["histograms"]["serve.pool.utilization"]["count"] == 1
        assert {"job:derive:matmul", "job:derive:aconv"} <= set(doc["spans"])


class TestBatch:
    def write_specs(self, tmp_path, specs) -> str:
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(specs))
        return str(path)

    def test_probe_batch_runs_and_reports(self, tmp_path, store_dir, capsys):
        path = self.write_specs(
            tmp_path,
            {"jobs": [
                {"kind": "probe", "options": {"action": "ok", "value": 1},
                 "label": "p1"},
                {"kind": "probe", "options": {"action": "ok", "value": 2},
                 "label": "p2"},
            ]},
        )
        assert main(["batch", path, "--workers", "2",
                     "--store-dir", store_dir]) == 0
        assert "2 job(s): 2 computed" in capsys.readouterr().out

    def test_terminal_failure_exits_nonzero_without_killing_the_pool(
        self, tmp_path, store_dir, capsys
    ):
        path = self.write_specs(
            tmp_path,
            [
                {"kind": "probe", "options": {"action": "raise"},
                 "label": "doomed"},
                {"kind": "probe", "options": {"action": "ok"},
                 "label": "survivor"},
            ],
        )
        assert main(["batch", path, "--workers", "1", "--json",
                     "--store-dir", store_dir]) == 1
        doomed, survivor = json_rows(capsys.readouterr().out)
        assert doomed["status"] == "failed"
        assert doomed["attempts"] == 1
        assert doomed["error"] == "RuntimeError: probe raised"
        assert survivor["status"] == "computed"  # pool survived

    def test_malformed_batch_file_is_a_usage_error(self, tmp_path, store_dir, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["batch", str(path), "--store-dir", store_dir]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_empty_batch_rejected(self, tmp_path, store_dir, capsys):
        assert main(["batch", self.write_specs(tmp_path, []),
                     "--store-dir", store_dir]) == 2
        assert "non-empty list" in capsys.readouterr().err

    def test_unknown_spec_field_rejected(self, tmp_path, store_dir, capsys):
        for spec, message in (
            ({"workload": "conv", "retries": 1}, "unknown job spec field"),
            ({"workload": "conv", "kind": "par_shard"}, "unknown job kind 'par_shard'"),
        ):
            path = self.write_specs(tmp_path, [spec])
            assert main(["batch", path, "--store-dir", store_dir]) == 2
            assert message in capsys.readouterr().err


class TestStatsAndGc:
    def seed(self, store_dir, n=3):
        store = ArtifactStore(store_dir)
        for i in range(n):
            store.put(("k", i), i)

    def test_stats_text_and_json(self, store_dir, capsys):
        self.seed(store_dir)
        assert main(["stats", "--store-dir", store_dir]) == 0
        assert "3 entries" in capsys.readouterr().out
        assert main(["stats", "--store-dir", store_dir, "--json"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert is_envelope(env)
        assert validate_document(env) == []
        assert schema_id_of(env) == SERVE_STORE
        doc = payload_of(env)
        assert doc["op"] == "stats"
        assert doc["store"]["entries"] == 3
        assert doc["store"]["root"] == store_dir

    def test_gc_requires_a_limit(self, store_dir, capsys):
        assert main(["gc", "--store-dir", store_dir]) == 2
        assert "--max-entries" in capsys.readouterr().err

    def test_gc_prunes_and_reports(self, store_dir, capsys):
        self.seed(store_dir)
        assert main(["gc", "--store-dir", store_dir,
                     "--max-entries", "1", "--json"]) == 0
        env = json.loads(capsys.readouterr().out)
        assert is_envelope(env)
        assert validate_document(env) == []
        doc = payload_of(env)
        assert doc["op"] == "gc"
        assert doc["gc"] == {"removed": 2, "kept": 1}
        assert ArtifactStore(store_dir).stats()["entries"] == 1
