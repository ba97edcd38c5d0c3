"""The store sink: content addressing (the one key space), publish()."""

from __future__ import annotations

import pytest

from repro.artifacts import (
    envelope,
    find_artifact,
    get_artifact,
    list_artifacts,
    payload_of,
    publish,
    put_artifact,
)
from repro.artifacts.registry import PERF_BASELINE
from repro.errors import ArtifactError
from repro.serve.store import ArtifactStore


def baseline_payload(wall=0.5) -> dict:
    return {"schema": PERF_BASELINE, "metrics": {"pass:block.wall_s": wall}}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(str(tmp_path / "cache"))


class TestContentAddressing:
    def test_put_then_get_roundtrips(self, store):
        env = envelope(baseline_payload(), producer="t")
        digest = put_artifact(store, env)
        assert digest == env["digest"]
        assert get_artifact(store, PERF_BASELINE, digest) == env

    def test_same_payload_twice_is_one_entry(self, store):
        put_artifact(store, envelope(baseline_payload(), producer="a"))
        put_artifact(store, envelope(baseline_payload(), producer="b"))
        assert len(list_artifacts(store)) == 1

    def test_bare_documents_are_refused(self, store):
        with pytest.raises(ArtifactError):
            put_artifact(store, baseline_payload())

    def test_missing_artifact_is_none(self, store):
        assert get_artifact(store, PERF_BASELINE, "ff" * 32) is None


class TestOneKeySpace:
    def test_a_publish_is_exactly_one_store_entry(self, store):
        env = publish(None, baseline_payload(), producer="t", store=store)
        assert store.stats()["entries"] == 1
        (row,) = list_artifacts(store)
        assert (row["schema"], row["digest"]) == (PERF_BASELINE, env["digest"])

    def test_job_results_sharing_the_store_are_not_listed(self, store):
        store.put(("derive", "fp", ()), {"fingerprint": "ab", "ir": "DO ..."})
        put_artifact(store, envelope(baseline_payload(), producer="t"))
        assert store.stats()["entries"] == 2
        assert len(list_artifacts(store)) == 1


class TestFindArtifact:
    def test_prefix_match(self, store):
        env = envelope(baseline_payload(), producer="t")
        put_artifact(store, env)
        assert find_artifact(store, env["digest"][:8]) == env
        assert find_artifact(store, "ffff") is None

    def test_ambiguous_prefix_raises(self, store):
        put_artifact(store, envelope(baseline_payload(0.5), producer="t"))
        put_artifact(store, envelope(baseline_payload(0.6), producer="t"))
        with pytest.raises(ArtifactError, match="ambiguous"):
            find_artifact(store, "")


class TestPublish:
    def test_publish_envelopes_writes_and_lands(self, store, tmp_path):
        path = tmp_path / "base.json"
        env = publish(str(path), baseline_payload(), producer="t",
                      store=store)
        assert payload_of(env) == baseline_payload()
        assert path.exists()
        assert get_artifact(store, PERF_BASELINE, env["digest"]) == env

    def test_publish_validates_by_default(self, tmp_path):
        bad = {"schema": PERF_BASELINE, "metrics": {"x": "slow"}}
        with pytest.raises(ArtifactError):
            publish(str(tmp_path / "bad.json"), bad, producer="t")
        assert not (tmp_path / "bad.json").exists()

    def test_publish_without_path_or_store_just_envelopes(self):
        env = publish(None, baseline_payload(), producer="t")
        assert env["producer"] == "t"
