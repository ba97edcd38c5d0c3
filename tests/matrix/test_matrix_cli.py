"""``python -m repro matrix``: exit codes, artifacts, filters."""

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
from repro.matrix.report import SCHEMA

GRID = ["--factor", "workload=lu_nopivot", "--factor", "b=2,4",
        "--factor", "cache_kb=1,2", "--factor", "n=8"]


@pytest.fixture
def cachedir(tmp_path, monkeypatch):
    """Point the store at the test's tmp dir."""
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
        assert schema_id_of(env) == SCHEMA
        doc = payload_of(env)
        assert doc["run"]["computed"] == 4
        assert {"b", "cache_kb"} <= set(doc["sensitivity"])
        assert "report written" in capsys.readouterr().out

    def test_rerun_skips_everything(self, cachedir, capsys):
        out = cachedir / "r.json"
        assert run_cli("run", *GRID, "--workers", "1", "--out", str(out)) == 0
        assert run_cli("run", *GRID, "--workers", "1", "--out", str(out)) == 0
        doc = payload_of(json.loads(out.read_text()))
        assert doc["run"]["hit"] == 4
        assert doc["run"]["computed"] == 0
        assert all(r["attempts"] == 0 for r in doc["rows"])

    def test_no_store_recomputes(self, cachedir):
        out = cachedir / "r.json"
        for _ in range(2):
            assert run_cli("run", *GRID, "--workers", "1", "--no-store",
                           "--out", str(out)) == 0
            assert payload_of(json.loads(out.read_text()))["run"]["computed"] == 4

    def test_spec_file_and_progress(self, cachedir, capsys):
        spec = cachedir / "grid.json"
        spec.write_text(json.dumps(
            {"factors": {"workload": ["lu_nopivot"], "b": [2, 4], "n": [8]}}
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
    """``status`` and ``resume`` went with the database (the store answers
    both: ``artifacts ls``, and ``run`` again); ``report`` re-analyzes a
    ``repro.matrix/1`` artifact named by file or by store digest."""

    @pytest.fixture
    def swept(self, cachedir):
        assert run_cli("run", *GRID, "--workers", "1",
                       "--out", str(cachedir / "r.json")) == 0
        return cachedir

    def test_report_only_factor(self, swept, capsys):
        out = swept / "rep.json"
        assert run_cli("report", str(swept / "r.json"), "--only", "b",
                       "--out", str(out)) == 0
        env = json.loads(out.read_text())
        assert validate_document(env) == []
        doc = payload_of(env)
        source = payload_of(json.loads((swept / "r.json").read_text()))
        assert doc["sensitivity"] == {"b": source["sensitivity"]["b"]}
        assert doc["rows"] == source["rows"]
        assert doc["grid"] == source["grid"] and doc["run"] is None

    def test_report_by_digest_prefix(self, swept, capsys):
        # ``run --out`` also landed the sweep artifact in the store
        env = json.loads((swept / "r.json").read_text())
        assert run_cli("report", env["digest"][:10], "--only", "cache_kb") == 0
        assert "sensitivity: cache_kb" in capsys.readouterr().out

    def test_report_defaults_to_the_default_out(self, swept, monkeypatch, capsys):
        monkeypatch.chdir(swept)
        (swept / "BENCH_matrix.json").write_text((swept / "r.json").read_text())
        assert run_cli("report", "--only", "b") == 0

    def test_report_only_absent_factor_exits_2(self, swept, capsys):
        assert run_cli("report", str(swept / "r.json"), "--only", "n") == 2
        err = capsys.readouterr().err
        assert "does not vary" in err and "varied factors" in err

    def test_report_only_unknown_factor_exits_2(self, swept, capsys):
        assert run_cli("report", str(swept / "r.json"), "--only", "bogus") == 2
        assert "unknown factor" in capsys.readouterr().err

    def test_report_metric_switch(self, swept, capsys):
        assert run_cli("report", str(swept / "r.json"), "--only", "b",
                       "--metric", "miss_ratio") == 0
        assert "metric: miss_ratio" in capsys.readouterr().out

    def test_report_empty_database_exits_2(self, cachedir, capsys):
        """Nothing to report on: no such file, nothing in the store."""
        assert run_cli("report", str(cachedir / "absent.json")) == 2
        assert "no artifact matches" in capsys.readouterr().err
