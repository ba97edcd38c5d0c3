"""``python -m repro par`` exit codes and artifacts."""

from __future__ import annotations

import json

from repro import cli
from repro.artifacts import payload_of, validate_document


def main(argv: list) -> int:
    return cli.main(["par", *argv])


class TestClassify:
    def test_classify_all_exits_zero(self, capsys):
        assert main(["classify", "--all"]) == 0
        out = capsys.readouterr().out
        for name in ("matmul", "conv", "lu_nopivot"):
            assert name in out
        assert "PARALLEL" in out and "SERIAL" in out
        assert "witness" in out  # serial verdicts name their edge

    def test_classify_writes_valid_report(self, tmp_path, capsys):
        path = tmp_path / "classify.json"
        assert main(["classify", "matmul", "--out", str(path)]) == 0
        doc = json.load(open(path))
        assert validate_document(doc) == []
        payload = payload_of(doc)
        assert payload["workloads"][0]["workload"] == "matmul"
        assert payload["workloads"][0]["sanitizer"] is None

    def test_unknown_workload_is_usage_error(self, capsys):
        assert main(["classify", "nosuch"]) == 2
        assert "error" in capsys.readouterr().err

    def test_no_workloads_is_usage_error(self, capsys):
        assert main(["classify"]) == 2


class TestSanitize:
    def test_sanitize_all_clean_exits_zero(self, capsys):
        assert main(["sanitize", "--all"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert "CONFLICT" not in out


class TestRun:
    def test_run_subcommand_is_gone(self, capsys):
        assert main(["run", "conv", "--shards", "2"]) == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err


class TestBench:
    def test_bench_writes_valid_artifact(self, tmp_path, capsys):
        path = tmp_path / "BENCH_par.json"
        assert main(["bench", "--workloads", "matmul", "conv",
                     "--out", str(path)]) == 0
        doc = json.load(open(path))
        assert validate_document(doc) == []
        payload = payload_of(doc)
        assert {w["workload"] for w in payload["workloads"]} == {"matmul", "conv"}
        assert all(w["sanitizer"]["clean"] for w in payload["workloads"])
        assert "run" not in payload
        assert payload["totals"]["conflicts"] == 0
