"""The ``python -m repro pipeline`` front end, driven in-process."""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.artifacts import is_envelope, payload_of
from repro.pipeline.trace import SCHEMA


def main(argv: list) -> int:
    return cli.main(["pipeline", *argv])


class TestListing:
    def test_list_algorithms(self, capsys):
        assert main(["--list-algorithms"]) == 0
        out = capsys.readouterr().out
        assert "lu_nopivot" in out and "givens" in out and "conv" in out

    def test_list_passes(self, capsys):
        assert main(["--list-passes"]) == 0
        out = capsys.readouterr().out
        assert "block" in out and "if_inspection" in out


class TestUsageErrors:
    def test_missing_algorithm(self, capsys):
        assert main([]) == 2
        assert "--algorithm is required" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        assert main(["-a", "cholesky"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_pass(self, capsys):
        assert main(["-a", "conv", "-p", "fuse"]) == 2
        assert "unknown pass" in capsys.readouterr().err

    def test_bad_sizes_syntax(self, capsys):
        assert main(["-a", "conv", "--verify", "--sizes", "N1"]) == 2
        assert "bad --sizes" in capsys.readouterr().err


class TestDerivationRun:
    def test_conv_default_pipeline_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        rc = main(
            ["-a", "conv", "--trace", str(trace_path), "--verify", "--cache-stats"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "conv: 3 pass(es)" in out
        assert "verified" in out
        assert "cache[" in out
        doc = json.loads(trace_path.read_text())
        assert is_envelope(doc)
        assert f"{doc['schema']}/{doc['schema_version']}" == SCHEMA
        trace = payload_of(doc)
        assert trace["schema"] == SCHEMA
        assert trace["algorithm"] == "conv"
        assert [s["pass"] for s in trace["spans"]] == ["split", "jam", "scalars"]
        assert all(s["status"] == "applied" for s in trace["spans"])
        assert all(s["verify"]["ok"] for s in trace["spans"])

    def test_infeasible_raise_is_usage_error_but_trace_lands(
        self, tmp_path, capsys
    ):
        trace_path = tmp_path / "trace.json"
        rc = main(
            [
                "-a",
                "conv",
                "-p",
                "if_inspection",  # conv has no guarded loop: infeasible
                "--on-infeasible",
                "raise",
                "--trace",
                str(trace_path),
            ]
        )
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err
        trace = payload_of(json.loads(trace_path.read_text()))
        assert trace["spans"][0]["status"] == "infeasible"

    def test_print_ir_emits_fortran(self, capsys):
        assert main(["-a", "conv", "-p", "scalars", "--print-ir"]) == 0
        assert "DO" in capsys.readouterr().out


@pytest.mark.slow
class TestAcceptanceCommand:
    def test_issue_acceptance_invocation(self, tmp_path, capsys):
        """The ISSUE.md acceptance run, verbatim (minus the shell)."""
        trace_path = tmp_path / "out.json"
        rc = main(
            [
                "--algorithm",
                "lu_nopivot",
                "--passes",
                "split,block,jam",
                "--trace",
                str(trace_path),
                "--verify",
            ]
        )
        assert rc == 0
        trace = payload_of(json.loads(trace_path.read_text()))
        assert len(trace["spans"]) == 3
        statuses = {s["pass"]: s["status"] for s in trace["spans"]}
        assert statuses["block"] == "applied"
        assert statuses["jam"] == "applied"
