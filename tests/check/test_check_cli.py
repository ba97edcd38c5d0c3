"""End-to-end tests of ``python -m repro check``."""

import json

from repro import cli
from repro.artifacts import payload_of, validate_document


def main(argv: list) -> int:
    return cli.main(["check", *argv])


def test_rules_listing(capsys):
    assert main(["--rules"]) == 0
    out = capsys.readouterr().out
    assert "ir/zero-step" in out
    assert "legal/block-carried-recurrence" in out
    assert "lint/blockable" in out
    assert "legal/par-carried-dep" in out
    assert "legal/par-reduction-shape" in out
    assert "lint/par-parallel" in out
    assert "lint/par-reduction" in out
    assert "lint/par-serial" in out


def test_no_workload_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_workload_is_usage_error(capsys):
    assert main(["nonesuch"]) == 2


def test_lu_nopivot_clean_with_report(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["lu_nopivot", "--out", str(path)]) == 0
    out = capsys.readouterr().out
    assert "blockable" in out
    env = json.loads(path.read_text())
    assert validate_document(env) == []
    doc = payload_of(env)
    assert doc["summary"]["error"] == 0
    assert any(v["verdict"] == "blockable" for v in doc["verdicts"])


def test_two_workloads_one_invocation(capsys):
    assert main(["conv", "matmul"]) == 0
    out = capsys.readouterr().out
    assert "conv" in out and "matmul" in out


def test_report_carries_par_classifications(tmp_path):
    path = tmp_path / "report.json"
    assert main(["matmul", "--out", str(path)]) == 0
    doc = payload_of(json.loads(path.read_text()))
    rules = {d["rule"] for d in doc["diagnostics"]}
    assert "lint/par-parallel" in rules
    assert "lint/par-reduction" in rules
