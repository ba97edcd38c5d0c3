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

    @pytest.mark.parametrize("argv, named", [
        (["-a", "lu_nopivot", "--sizes", "Q=3", "--verify"], "'Q=3'"),  # a typo
        (["-a", "lu_nopivot", "--sizes", "N=abc"], "N='abc'"),  # without --verify
        (["-a", "lu_nopivot", "--sizes", "KS=0", "--verify"], "KS='0'"),
        (["-a", "conv", "--sizes", "N1=3.5", "--verify"], "N1='3.5'"),
    ], ids=["unknown-name", "not-a-number", "zero", "fraction"])
    def test_bad_sizes_are_usage_errors_before_any_pass(self, argv, named, capsys):
        """Not ignored, and not a verdict against a correct pass."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "bad --sizes" in captured.err and named in captured.err
        assert "KS, N" in captured.err or "DT, N1, N2, N3" in captured.err
        assert "pass(es)" not in captured.out

    @pytest.mark.parametrize("argv, fact", [
        (["pipeline", "-a", "conv", "--sizes", "N1=16", "--verify"], "N1 >= N2 + 1"),
        (["pipeline", "-a", "conv", "--sizes", "N2=30"], "N2 <= N1 - 1"),
        (["obs", "conv", "--sizes", "N1=16"], "N1 >= N2 + 1"),
    ], ids=["N1-below-N2-and-N3", "N2-above-N1", "through-obs"])
    def test_sizes_breaking_a_stored_fact_are_usage_errors(self, argv, fact, capsys):
        """``N1=16`` was reported as ``split`` failing verification: the
        sizes broke the workload's own assumptions, not the pass."""
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert "bad --sizes" in captured.err and f"fact {fact}" in captured.err
        assert "pass(es)" not in captured.out and "verif" not in captured.err

    @pytest.mark.parametrize("factor, named", [
        ("0", "got 0"), ("-4", "got '-4'"), ("2.5", "got '2.5'"), ("4x", "got '4x'"),
    ])
    def test_a_factor_block_cannot_use_is_a_usage_error_before_any_pass(
            self, factor, named, capsys):
        """``--factor 4x`` reached ``block`` as a symbol named ``4x``, and
        ``--verify`` then blamed the pass for the unparsable program."""
        assert main(["-a", "lu_nopivot", "-p", "block", "--factor", factor, "--verify"]) == 2
        captured = capsys.readouterr()
        assert "factor must be an int >= 1 or a symbol name" in captured.err
        assert named in captured.err and "pass(es)" not in captured.out

    def test_sizes_a_real_size_and_the_factor_name(self, capsys):
        assert main(["-a", "conv", "-p", "split", "--sizes", "N1=30", "--verify"]) == 0
        assert main(["-a", "conv", "-p", "split", "--sizes", "DT=0.25", "--verify"]) == 0
        assert main(["-a", "lu_nopivot", "-p", "block", "--factor", "KB",
                     "--sizes", "KB=3,N=10", "--verify"]) == 0
        assert "verified" in capsys.readouterr().out


class TestDerivationRun:
    def test_a_numeric_factor_is_the_library_s_numeric_factor(self, tmp_path, capsys):
        """``--factor 4`` is ``derive(factor=4)``, not a parameter named
        ``4`` (``SUBROUTINE lu_point(N, 4)``, ``DO K = 1, N - 1, 4``)."""
        from repro.ir.fingerprint import ir_fingerprint
        from repro.pipeline import derive

        trace = tmp_path / "t.json"
        assert main(["-a", "lu_nopivot", "--factor", "4", "--check", "--verify",
                     "--print-ir", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "block          applied" in out and "SUBROUTINE lu_point(N)" in out
        span = payload_of(json.loads(trace.read_text()))["spans"][-1]
        want = ir_fingerprint(derive("lu_nopivot", factor=4).procedure)
        assert span["output_fingerprint"] == want

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
