"""``python -m repro serve``: submit/batch/stats/gc, exit codes, artifacts."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.artifacts import is_envelope, payload_of, validate_document
from repro.artifacts.registry import OBS_METRICS, SERVE_STORE
from repro.serve.store import ArtifactStore


def main(argv: list) -> int:
    return cli.main(["serve", *argv])


@pytest.fixture
def store_dir(tmp_path) -> str:
    return str(tmp_path / "cache")


def submit(store_dir, *extra) -> int:
    return main(["submit", "matmul", "--workers", "1",
                 "--store-dir", store_dir, *extra])


class TestSubmit:
    def test_cold_then_warm_writes_a_valid_report(self, store_dir, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert submit(store_dir, "--out", str(out)) == 0
        env = json.loads(out.read_text())
        assert is_envelope(env) and validate_document(env) == []
        report = payload_of(env)
        assert report["jobs"][0]["status"] == "computed"
        assert "report written to" in capsys.readouterr().out

        assert submit(store_dir, "--out", str(out)) == 0
        warm = payload_of(json.loads(out.read_text()))
        assert warm["jobs"][0]["status"] == "hit"
        assert warm["jobs"][0]["fingerprint"] == report["jobs"][0]["fingerprint"]

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
        obs_path = tmp_path / "obs.json"
        assert submit(store_dir, "--no-store", "--obs", str(obs_path)) == 0
        env = json.loads(obs_path.read_text())
        assert is_envelope(env)
        assert payload_of(env)["schema"] == OBS_METRICS


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
                {"kind": "probe", "options": {"action": "terminal"},
                 "max_retries": 0, "label": "doomed"},
                {"kind": "probe", "options": {"action": "ok"},
                 "label": "survivor"},
            ],
        )
        assert main(["batch", path, "--workers", "1",
                     "--store-dir", store_dir]) == 1
        text = capsys.readouterr().out
        assert "failed" in text and "computed" in text  # pool survived

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
        doc = payload_of(env)
        assert doc["schema"] == SERVE_STORE
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
