"""``python -m repro perf``: the record/diff/trend/gate workflow end to
end, including the exit-code contract CI relies on."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import is_envelope, payload_of, schema_id_of
from repro.artifacts.registry import PERF_BASELINE, PERF_GATE
from repro import cli
from repro.perf import ingest
from repro.serve.store import ArtifactStore
from tests.perf.test_ingest import pipeline_doc


@pytest.fixture
def env(tmp_path):
    """A scratch store plus two artifacts: a reference and a variant
    with one synthetically slowed pass."""
    store = str(tmp_path / "store")
    ref = str(tmp_path / "ref.json")
    slow = str(tmp_path / "slow.json")
    with open(ref, "w") as fh:
        json.dump(pipeline_doc(block_wall=0.5), fh)
    with open(slow, "w") as fh:
        json.dump(pipeline_doc(block_wall=1.5), fh)
    return {"store": store, "ref": ref, "slow": slow, "tmp": tmp_path}


def run(args):
    return cli.main(["perf", *args])


class TestRecordAndQuery:
    def test_record_runs_diff_trend(self, env, capsys):
        assert run(["record", env["ref"], "--label", "main",
                    "--store-dir", env["store"]]) == 0
        assert run(["record", env["slow"], "--label", "work",
                    "--store-dir", env["store"]]) == 0
        assert run(["runs", "--store-dir", env["store"]]) == 0
        assert run(["diff", "main", "work", "--store-dir", env["store"],
                    "--metrics", "pass:*"]) == 0
        out = capsys.readouterr().out
        assert "pass:block.wall_s" in out
        assert "+200.00%" in out
        assert run(["trend", "pass:block.wall_s", "--store-dir", env["store"]]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out

    def test_trend_unknown_metric_exits_2(self, env):
        run(["record", env["ref"], "--store-dir", env["store"]])
        assert run(["trend", "no.such.metric", "--store-dir", env["store"]]) == 2

    def test_record_unreadable_artifact_exits_2(self, env):
        assert run(["record", str(env["tmp"] / "absent.json"),
                    "--store-dir", env["store"]]) == 2

    def test_baseline_out_writes_committable_file(self, env):
        base = str(env["tmp"] / "base.json")
        assert run(["record", env["ref"], "--store-dir", env["store"],
                    "--out", base]) == 0
        env_doc = json.load(open(base))
        assert is_envelope(env_doc)
        assert schema_id_of(env_doc) == PERF_BASELINE
        doc = payload_of(env_doc)
        assert doc["metrics"]["pass:block.wall_s"] == 0.5
        # the file is the recorded run itself
        store = ArtifactStore(env["store"])
        assert [r["id"] for r in ingest.runs(store)] == [env_doc["digest"]]


class TestGateExitCodes:
    def test_identical_artifacts_exit_0(self, env):
        run(["record", env["ref"], "--label", "main", "--store-dir", env["store"]])
        assert run(["gate", env["ref"], "--baseline", "main",
                    "--store-dir", env["store"], "--metrics", "pass:*",
                    "--threshold", "0"]) == 0

    def test_synthetically_slowed_pass_exits_1(self, env):
        run(["record", env["ref"], "--label", "main", "--store-dir", env["store"]])
        assert run(["gate", env["slow"], "--baseline", "main",
                    "--store-dir", env["store"], "--metrics", "pass:*.wall_s",
                    "--threshold", "25"]) == 1

    def test_missing_baseline_exits_3(self, env):
        assert run(["gate", env["ref"], "--baseline", "nosuch",
                    "--store-dir", env["store"]]) == 3

    def test_no_tracked_baseline_metrics_exits_3(self, env):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--store-dir", env["store"],
             "--out", base])
        assert run(["gate", env["ref"], "--baseline", base,
                    "--metrics", "zzz:*", "--store-dir", env["store"]]) == 3

    def test_usage_errors_exit_2(self, env):
        # no baseline source
        assert run(["gate", env["ref"], "--store-dir", env["store"]]) == 2
        # the database flags and the second spellings of a baseline are gone
        base = str(env["tmp"] / "base.json")
        assert run(["record", env["ref"], "--baseline-out", base]) == 2
        assert run(["gate", env["ref"], "--baseline-file", base]) == 2
        assert run(["runs", "--db", str(env["tmp"] / "perf.db")]) == 2
        # --limit means the newest N, N >= 1, on both listings
        for cmd in (["runs"], ["trend", "pass:block.wall_s"]):
            assert run([*cmd, "--limit", "0", "--store-dir", env["store"]]) == 2

    def test_gate_against_baseline_file(self, env):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--store-dir", env["store"],
             "--out", base])
        assert run(["gate", env["ref"], "--baseline", base,
                    "--metrics", "pass:*.ir_size_after",
                    "--threshold", "0", "--store-dir", env["store"]]) == 0
        # grow the IR: a deterministic metric regresses at threshold 0
        grown = str(env["tmp"] / "grown.json")
        with open(grown, "w") as fh:
            json.dump(pipeline_doc(block_size=200), fh)
        assert run(["gate", grown, "--baseline", base,
                    "--metrics", "pass:*.ir_size_after",
                    "--threshold", "0", "--store-dir", env["store"]]) == 1

    def test_gate_record_also_records(self, env, capsys):
        base = str(env["tmp"] / "base.json")
        run(["record", env["ref"], "--store-dir", env["store"],
             "--out", base])
        run(["gate", env["ref"], "--baseline", base,
             "--record", "--label", "gated", "--store-dir", env["store"],
             "--metrics", "pass:*"])
        assert run(["runs", "--store-dir", env["store"]]) == 0
        assert "[gated]" in capsys.readouterr().out

    def test_gate_json_report(self, env, capsys):
        run(["record", env["ref"], "--label", "main", "--store-dir", env["store"]])
        out_path = str(env["tmp"] / "gate.json")
        rc = run(["gate", env["slow"], "--baseline", "main",
                  "--store-dir", env["store"], "--metrics", "pass:*.wall_s",
                  "--threshold", "25", "--out", out_path])
        env_doc = json.load(open(out_path))
        assert schema_id_of(env_doc) == PERF_GATE
        doc = payload_of(env_doc)
        assert doc["verdict"] == "regressed"
        assert rc == 1
        assert any(r["verdict"] == "regressed" for r in doc["rows"])
