"""The schema registry: builtin kinds, lazy hooks, validate_document."""

from __future__ import annotations

import pytest

from repro.artifacts import envelope, registry, require_valid, validate_document
from repro.artifacts.registry import (
    CHECK_REPORT,
    DAEMON_STATUS,
    MATRIX_REPORT,
    OBS_METRICS,
    OBS_SNAPSHOT,
    PAR_REPORT,
    PERF_BASELINE,
    PERF_GATE,
    PIPELINE_BENCH,
    PIPELINE_TRACE,
    SERVE_LOAD,
    SERVE_STORE,
)
from repro.artifacts.validate import (
    RULE_DIGEST,
    RULE_MALFORMED,
    RULE_PAYLOAD,
    RULE_SCHEMA_MISMATCH,
    RULE_STALE_VERSION,
    RULE_UNKNOWN_SCHEMA,
)
from repro.errors import ArtifactError

ALL_IDS = (
    PIPELINE_TRACE, PIPELINE_BENCH, OBS_METRICS, OBS_SNAPSHOT,
    CHECK_REPORT, MATRIX_REPORT, PERF_GATE, PERF_BASELINE,
    PAR_REPORT, DAEMON_STATUS, SERVE_LOAD, SERVE_STORE,
)


def baseline_payload() -> dict:
    return {"schema": PERF_BASELINE, "metrics": {"pass:block.wall_s": 0.5}}


class TestBuiltinKinds:
    def test_every_subsystem_schema_is_registered(self):
        assert set(registry.known_ids()) == set(ALL_IDS)

    def test_every_kind_has_a_resolvable_validator(self):
        for schema_id in ALL_IDS:
            kind = registry.get(schema_id)
            assert callable(kind.validate_payload), schema_id

    def test_flatten_hooks_resolve_where_registered(self):
        # snapshots and gate verdicts have no perf timeline; all other
        # kinds must be ingestible by ``repro.perf record``
        no_timeline = {OBS_SNAPSHOT, PERF_GATE}
        for schema_id in ALL_IDS:
            kind = registry.get(schema_id)
            if schema_id in no_timeline:
                assert kind.flatten is None, schema_id
            else:
                assert callable(kind.flatten), schema_id

    def test_lookup_unknown_is_none_but_get_raises(self):
        assert registry.lookup("repro.nope/1") is None
        with pytest.raises(ArtifactError, match="known:"):
            registry.get("repro.nope/1")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ArtifactError, match="already registered"):
            registry.register(PERF_BASELINE)

    def test_versions_of(self):
        assert registry.versions_of("repro.perf.baseline") == [1]
        assert registry.versions_of("repro.nope") == []


class TestValidateDocument:
    def test_valid_envelope_passes(self):
        env = envelope(baseline_payload(), producer="t")
        assert validate_document(env) == []
        assert require_valid(env) is env

    def test_bare_document_is_a_malformed_envelope(self):
        problems = validate_document(baseline_payload())
        assert [p.rule for p in problems] == [RULE_MALFORMED]

    def test_unknown_schema_rule(self):
        # payload without an inner schema field: only the envelope id counts
        env = envelope({"metrics": {}}, schema=PERF_BASELINE, producer="t")
        env["schema"] = "repro.nope"
        problems = validate_document(env)
        assert [p.rule for p in problems] == [RULE_UNKNOWN_SCHEMA]

    def test_stale_version_rule(self):
        env = envelope({"metrics": {}}, schema=PERF_BASELINE, producer="t")
        env["schema_version"] = 99
        problems = validate_document(env)
        assert [p.rule for p in problems] == [RULE_STALE_VERSION]
        assert "repro.perf.baseline/1" in problems[0].message

    def test_tampered_envelope_id_also_breaks_inner_agreement(self):
        env = envelope(baseline_payload(), producer="t")
        env["schema_version"] = 99
        rules = {p.rule for p in validate_document(env)}
        assert rules == {RULE_SCHEMA_MISMATCH, RULE_STALE_VERSION}

    def test_digest_mismatch_rule(self):
        env = envelope(baseline_payload(), producer="t")
        env["payload"]["metrics"]["pass:block.wall_s"] = 0.9
        assert RULE_DIGEST in {p.rule for p in validate_document(env)}

    def test_inner_schema_disagreement_rule(self):
        payload = dict(baseline_payload(), schema=PERF_GATE)
        env = envelope(payload, schema=PERF_BASELINE, producer="t")
        rules = {p.rule for p in validate_document(env)}
        assert RULE_SCHEMA_MISMATCH in rules

    def test_invalid_payload_rule(self):
        env = envelope({"schema": PERF_BASELINE, "metrics": {"x": "slow"}},
                       producer="t")
        problems = validate_document(env)
        assert [p.rule for p in problems] == [RULE_PAYLOAD]

    def test_malformed_envelope_rule(self):
        env = envelope(baseline_payload(), producer="t")
        del env["producer"]
        env["timing"] = None
        rules = [p.rule for p in validate_document(env)]
        assert rules and set(rules) == {RULE_MALFORMED}

    def test_require_valid_carries_structured_problems(self):
        env = envelope({"metrics": {}}, schema=PERF_BASELINE, producer="t")
        env["schema_version"] = 99
        with pytest.raises(ArtifactError) as exc:
            require_valid(env)
        assert [p.rule for p in exc.value.problems] == [RULE_STALE_VERSION]
