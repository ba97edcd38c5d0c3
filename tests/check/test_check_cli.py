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


def test_store_publishes_one_entry_and_every_run_rechecks(
    tmp_path, monkeypatch, capsys
):
    """``--store`` lands the report under its content address and nothing
    else; a repeat run is never answered from a name-keyed copy — edit
    what a workload means and the verdict follows."""
    from repro.artifacts import list_artifacts
    from repro.check import cli as check_cli
    from repro.check.diagnostics import diag
    from repro.serve.store import ArtifactStore

    argv = ["conv", "--store", "--store-dir", str(tmp_path / "cache")]
    store = ArtifactStore(str(tmp_path / "cache"))
    for _ in range(2):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "conv" in out and "diagnostic(s), 0 error(s)" in out
        assert "resumed" not in out
        assert store.stats()["entries"] == 1  # same payload, same address
    (row,) = list_artifacts(store)
    assert row["schema"] == "repro.check/1"

    audit = check_cli.audit_workload
    monkeypatch.setattr(check_cli, "audit_workload", lambda name: (
        audit(name)[0] + [diag("ir/zero-step", "p/DO I", "DO I has step 0")],
        []))
    assert main(argv) == 1  # not a stored "0 error(s)"
    assert "1 error(s)" in capsys.readouterr().out
    assert store.stats()["entries"] == 2
