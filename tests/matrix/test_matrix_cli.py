"""``python -m repro matrix``: exit codes, artifacts, filters."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.artifacts import is_envelope, payload_of, validate_document
from repro.matrix.report import SCHEMA

GRID = ["--factor", "workload=matmul", "--factor", "b=2,4",
        "--factor", "cache_kb=1,2", "--factor", "n=8"]


@pytest.fixture
def cachedir(tmp_path, monkeypatch):
    """Point both the store and the database at the test's tmp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run_cli(*argv) -> int:
    return cli.main(["matrix", *argv])


class TestRun:
    def test_run_writes_valid_artifact(self, cachedir, capsys):
        out = cachedir / "BENCH_matrix.json"
        rc = run_cli("run", *GRID, "--workers", "1", "--out", str(out))
        assert rc == 0
        env = json.loads(out.read_text())
        assert is_envelope(env) and validate_document(env) == []
        doc = payload_of(env)
        assert doc["schema"] == SCHEMA
        assert doc["run"]["computed"] == 4
        assert {"b", "cache_kb"} <= set(doc["sensitivity"])
        assert "report written" in capsys.readouterr().out

    def test_rerun_skips_everything(self, cachedir, capsys):
        out = cachedir / "r.json"
        assert run_cli("run", *GRID, "--workers", "1", "--out", str(out)) == 0
        assert run_cli("run", *GRID, "--workers", "1", "--out", str(out)) == 0
        doc = payload_of(json.loads(out.read_text()))
        assert doc["run"]["skipped"] == 4
        assert doc["run"]["computed"] == 0

    def test_spec_file_and_progress(self, cachedir, capsys):
        spec = cachedir / "grid.json"
        spec.write_text(json.dumps(
            {"factors": {"workload": ["matmul"], "b": [2, 4], "n": [8]}}
        ))
        rc = run_cli("run", str(spec), "--workers", "1", "--progress",
                     "--out", str(cachedir / "r.json"))
        assert rc == 0
        assert "[2/2]" in capsys.readouterr().out

    def test_bad_spec_exits_2(self, cachedir, capsys):
        rc = run_cli("run", "--factor", "workload=matmul",
                     "--factor", "blocking=2")
        assert rc == 2
        assert "unknown factor" in capsys.readouterr().err

    def test_spec_and_factor_are_exclusive(self, cachedir, capsys):
        spec = cachedir / "grid.json"
        spec.write_text("{}")
        assert run_cli("run", str(spec), *GRID) == 2


class TestStatusResumeReport:
    @pytest.fixture
    def swept(self, cachedir):
        assert run_cli("run", *GRID, "--workers", "1",
                       "--out", str(cachedir / "r.json")) == 0
        return cachedir

    def test_status_lists_the_sweep(self, swept, capsys):
        assert run_cli("status", "--json") == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 1
        assert out[0]["done"] == out[0]["cells"] == 4

    def test_resume_completed_sweep_is_a_noop(self, swept, capsys):
        out = swept / "resumed.json"
        assert run_cli("resume", "--out", str(out)) == 0
        doc = payload_of(json.loads(out.read_text()))
        assert doc["run"]["skipped"] == 4

    def test_resume_unknown_sweep_exits_2(self, swept, capsys):
        assert run_cli("resume", "ffff") == 2
        assert "no sweep matches" in capsys.readouterr().err

    def test_report_only_factor(self, swept, capsys):
        out = swept / "rep.json"
        assert run_cli("report", "--only", "b", "--out", str(out)) == 0
        env = json.loads(out.read_text())
        assert validate_document(env) == []
        doc = payload_of(env)
        assert list(doc["sensitivity"]) == ["b"]

    def test_report_only_absent_factor_exits_2(self, swept, capsys):
        assert run_cli("report", "--only", "n") == 2
        err = capsys.readouterr().err
        assert "does not vary" in err and "varied factors" in err

    def test_report_only_unknown_factor_exits_2(self, swept, capsys):
        assert run_cli("report", "--only", "bogus") == 2
        assert "unknown factor" in capsys.readouterr().err

    def test_report_metric_switch(self, swept, capsys):
        assert run_cli("report", "--only", "b", "--metric", "miss_ratio") == 0
        assert "metric: miss_ratio" in capsys.readouterr().out

    def test_report_empty_database_exits_2(self, cachedir, capsys):
        assert run_cli("report") == 2
        assert "no result rows" in capsys.readouterr().err
