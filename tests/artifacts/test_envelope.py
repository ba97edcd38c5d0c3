"""The artifact envelope: digesting, wrapping, the envelope-only readers."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import (
    canonical_json,
    envelope,
    is_envelope,
    load_file,
    payload_digest,
    payload_of,
    schema_id_of,
    split_id,
    write_file,
)
from repro.artifacts.envelope import RULE_MALFORMED
from repro.artifacts.registry import PERF_BASELINE
from repro.errors import ArtifactError


def baseline_payload() -> dict:
    return {"schema": PERF_BASELINE, "metrics": {"pass:block.wall_s": 0.5}}


class TestDigest:
    def test_digest_is_stable_across_key_order(self):
        a = {"schema": PERF_BASELINE, "metrics": {"x": 1.0, "y": 2.0}}
        b = {"metrics": {"y": 2.0, "x": 1.0}, "schema": PERF_BASELINE}
        assert payload_digest(a) == payload_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_digest_changes_with_content(self):
        a = baseline_payload()
        b = dict(a, metrics={"pass:block.wall_s": 0.6})
        assert payload_digest(a) != payload_digest(b)

    def test_enveloping_is_deterministic_given_payload(self):
        a = envelope(baseline_payload(), producer="t", created_s=0.0)
        b = envelope(baseline_payload(), producer="t", created_s=0.0)
        assert a == b


class TestEnvelope:
    def test_schema_defaults_to_inner_field(self):
        env = envelope(baseline_payload(), producer="t")
        assert env["schema"] == "repro.perf.baseline"
        assert env["schema_version"] == 1
        assert env["digest"] == payload_digest(baseline_payload())
        assert env["payload"] == baseline_payload()

    def test_payload_without_schema_needs_explicit_id(self):
        with pytest.raises(ArtifactError):
            envelope({"metrics": {}})
        env = envelope({"metrics": {}}, schema=PERF_BASELINE)
        assert schema_id_of(env) == PERF_BASELINE

    def test_non_object_payload_rejected(self):
        with pytest.raises(ArtifactError):
            envelope([1, 2, 3])

    def test_split_id(self):
        assert split_id("repro.obs/1") == ("repro.obs", 1)
        for bad in ("repro.obs", "repro.obs/", "/1", "repro.obs/x"):
            with pytest.raises(ArtifactError):
                split_id(bad)


class TestLegacyReader:
    """There is none: the readers take envelopes only."""

    def test_bare_document_is_rejected(self):
        bare = baseline_payload()
        assert not is_envelope(bare)
        for reader in (payload_of, schema_id_of):
            with pytest.raises(ArtifactError, match=RULE_MALFORMED):
                reader(bare)

    def test_enveloped_document_unwraps(self):
        env = envelope(baseline_payload(), producer="t")
        assert is_envelope(env)
        assert payload_of(env) == baseline_payload()
        assert schema_id_of(env) == PERF_BASELINE

    def test_schemaless_document_has_no_id(self):
        for doc in ({"metrics": {}}, 7):
            with pytest.raises(ArtifactError, match=RULE_MALFORMED):
                schema_id_of(doc)


class TestFileRoundTrip:
    def test_write_then_load_is_identical(self, tmp_path):
        env = envelope(baseline_payload(), producer="t")
        path = tmp_path / "a.json"
        write_file(str(path), env)
        assert load_file(str(path)) == env
        assert path.read_text().endswith("\n")

    def test_unreadable_and_malformed_files_raise(self, tmp_path):
        with pytest.raises(ArtifactError):
            load_file(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ArtifactError):
            load_file(str(bad))
        arr = tmp_path / "arr.json"
        arr.write_text(json.dumps([1, 2]))
        with pytest.raises(ArtifactError):
            load_file(str(arr))
