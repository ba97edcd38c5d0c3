"""``python -m repro artifacts`` validate/ls/cat on files and the store."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import envelope, publish, put_artifact, write_file
from repro import cli
from repro.artifacts.registry import PERF_BASELINE
from repro.artifacts.validate import RULE_MALFORMED, RULE_STALE_VERSION
from repro.serve.store import ArtifactStore


def main(argv: list) -> int:
    return cli.main(["artifacts", *argv])


def baseline_payload(wall=0.5) -> dict:
    return {"schema": PERF_BASELINE, "metrics": {"pass:block.wall_s": wall}}


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "base.json"
    publish(str(path), baseline_payload(), producer="t")
    return str(path)


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "cache")


class TestValidate:
    def test_valid_file_exits_0(self, good_file, capsys):
        assert main(["validate", good_file]) == 0
        assert "ok" in capsys.readouterr().out

    def test_invalid_file_exits_1_with_rule_id(self, tmp_path, capsys):
        env = envelope(baseline_payload(), producer="t")
        env["schema_version"] = 99
        path = tmp_path / "stale.json"
        write_file(str(path), env)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and RULE_STALE_VERSION in out

    def test_bare_payload_exits_1_as_malformed_envelope(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        write_file(str(path), baseline_payload())
        assert main(["validate", str(path), "--json"]) == 1
        (doc,) = json.loads(capsys.readouterr().out)["documents"]
        assert [p["rule"] for p in doc["problems"]] == [RULE_MALFORMED]

    def test_json_report(self, good_file, capsys):
        assert main(["validate", good_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is True
        assert doc["documents"][0]["path"] == good_file

    def test_no_input_is_usage_error(self, capsys):
        assert main(["validate"]) == 2

    def test_unreadable_file_is_usage_error(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "missing.json")]) == 2

    def test_store_contents_validate(self, store_dir, capsys):
        store = ArtifactStore(store_dir)
        put_artifact(store, envelope(baseline_payload(), producer="t"))
        assert main(["validate", "--store", "--store-dir", store_dir]) == 0
        assert "store:" in capsys.readouterr().out


class TestLs:
    def test_named_file(self, good_file, capsys):
        assert main(["ls", good_file]) == 0
        assert "repro.perf.baseline/1" in capsys.readouterr().out

    def test_store_inventory(self, store_dir, capsys):
        store = ArtifactStore(store_dir)
        put_artifact(store, envelope(baseline_payload(), producer="t"))
        assert main(["ls", "--store-dir", store_dir]) == 0
        out = capsys.readouterr().out
        assert "repro.perf.baseline/1" in out

    def test_empty_store(self, store_dir, capsys):
        assert main(["ls", "--store-dir", store_dir]) == 0
        assert "no artifacts" in capsys.readouterr().out


class TestCat:
    def test_file_payload_unwraps(self, good_file, capsys):
        assert main(["cat", good_file, "--payload"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == baseline_payload()

    def test_store_digest_prefix(self, store_dir, capsys):
        store = ArtifactStore(store_dir)
        env = envelope(baseline_payload(), producer="t")
        put_artifact(store, env)
        assert main(["cat", env["digest"][:10],
                     "--store-dir", store_dir]) == 0
        assert json.loads(capsys.readouterr().out) == env

    def test_unknown_target_exits_2(self, store_dir, capsys):
        assert main(["cat", "feedf00d", "--store-dir", store_dir]) == 2
        assert "no artifact matches" in capsys.readouterr().err
