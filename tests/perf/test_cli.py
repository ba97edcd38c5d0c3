"""``python -m repro perf``: the record/diff/trend/gate workflow end to
end, including the exit-code contract CI relies on."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import is_envelope, payload_of
from repro.artifacts.registry import PERF_BASELINE, PERF_GATE
from repro import cli
from tests.perf.test_ingest import pipeline_doc


@pytest.fixture
def env(tmp_path):
    """A scratch database plus two artifacts: a reference and a variant
    with one synthetically slowed pass."""
    db = str(tmp_path / "perf.db")
    ref = str(tmp_path / "ref.json")
    slow = str(tmp_path / "slow.json")
    with open(ref, "w") as fh:
        json.dump(pipeline_doc(block_wall=0.5), fh)
    with open(slow, "w") as fh:
        json.dump(pipeline_doc(block_wall=1.5), fh)
    return {"db": db, "ref": ref, "slow": slow, "tmp": tmp_path}


def run(args):
    return cli.main(["perf", *args])


class TestRecordAndQuery:
    def test_record_runs_diff_trend(self, env, capsys):
        assert run(["record", env["ref"], "--label", "main",
                    "--db", env["db"]]) == 0
        assert run(["record", env["slow"], "--label", "work",
                    "--db", env["db"]]) == 0
        assert run(["runs", "--db", env["db"]]) == 0
        assert run(["diff", "main", "work", "--db", env["db"],
                    "--metrics", "pass:*"]) == 0
        out = capsys.readouterr().out
        assert "pass:block.wall_s" in out
        assert "+200.00%" in out
        assert run(["trend", "pass:block.wall_s", "--db", env["db"]]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out

    def test_trend_unknown_metric_exits_2(self, env):
        run(["record", env["ref"], "--db", env["db"]])
        assert run(["trend", "no.such.metric", "--db", env["db"]]) == 2

    def test_record_unreadable_artifact_exits_2(self, env):
        assert run(["record", str(env["tmp"] / "absent.json"),
                    "--db", env["db"]]) == 2

    def test_baseline_out_writes_committable_file(self, env):
        base = str(env["tmp"] / "base.json")
        assert run(["record", env["ref"], "--db", env["db"],
                    "--baseline-out", base]) == 0
        env_doc = json.load(open(base))
        assert is_envelope(env_doc)
        doc = payload_of(env_doc)
        assert doc["schema"] == PERF_BASELINE
        assert doc["metrics"]["pass:block.wall_s"] == 0.5


class TestGateExitCodes:
    def test_identical_artifacts_exit_0(self, env):
        run(["record", env["ref"], "--label", "main", "--db", env["db"]])
        assert run(["gate", env["ref"], "--baseline", "main",
                    "--db", env["db"], "--metrics", "pass:*",
                    "--threshold", "0"]) == 0

    def test_synthetically_slowed_pass_exits_1(self, env):
        run(["record", env["ref"], "--label", "main", "--db", env["db"]])
        assert run(["gate", env["slow"], "--baseline", "main",
                    "--db", env["db"], "--metrics", "pass:*.wall_s",
                    "--threshold", "25"]) == 1

    def test_missing_baseline_exits_3(self, env):
        assert run(["gate", env["ref"], "--baseline", "nosuch",
                    "--db", env["db"]]) == 3

    def test_no_tracked_baseline_metrics_exits_3(self, env):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--db", env["db"],
             "--baseline-out", base])
        assert run(["gate", env["ref"], "--baseline-file", base,
                    "--metrics", "zzz:*", "--db", env["db"]]) == 3

    def test_usage_errors_exit_2(self, env):
        # neither or both baseline sources
        assert run(["gate", env["ref"], "--db", env["db"]]) == 2
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--label", "main", "--db", env["db"],
             "--baseline-out", base])
        assert run(["gate", env["ref"], "--baseline", "main",
                    "--baseline-file", base, "--db", env["db"]]) == 2

    def test_gate_against_baseline_file(self, env):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--db", env["db"],
             "--baseline-out", base])
        assert run(["gate", env["ref"], "--baseline-file", base,
                    "--metrics", "pass:*.ir_size_after",
                    "--threshold", "0", "--db", env["db"]]) == 0
        # grow the IR: a deterministic metric regresses at threshold 0
        grown = str(env["tmp"] / "grown.json")
        with open(grown, "w") as fh:
            json.dump(pipeline_doc(block_size=200), fh)
        assert run(["gate", grown, "--baseline-file", base,
                    "--metrics", "pass:*.ir_size_after",
                    "--threshold", "0", "--db", env["db"]]) == 1

    def test_gate_record_also_records(self, env):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--db", env["db"],
             "--baseline-out", base])
        run(["gate", env["ref"], "--baseline-file", base,
             "--record", "--label", "gated", "--db", env["db"],
             "--metrics", "pass:*"])
        assert run(["runs", "--db", env["db"]]) == 0

    def test_gate_json_report(self, env, capsys):
        run(["record", env["ref"], "--label", "main", "--db", env["db"]])
        out_path = str(env["tmp"] / "gate.json")
        run(["gate", env["slow"], "--baseline", "main", "--db", env["db"],
             "--metrics", "pass:*.wall_s", "--threshold", "25",
             "--out", out_path])
        doc = payload_of(json.load(open(out_path)))
        assert doc["schema"] == PERF_GATE
        assert doc["verdict"] == "regressed"
        assert doc["exit_code"] == 1
        assert any(r["verdict"] == "regressed" for r in doc["rows"])
