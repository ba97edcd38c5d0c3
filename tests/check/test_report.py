"""The ``repro.check/1`` report: build → validate round trip, and the
validator must catch tampered documents."""

import json

from repro.artifacts import (
    envelope,
    is_envelope,
    payload_of,
    publish,
    registry,
    validate_document,
)
from repro.artifacts.validate import RULE_STALE_VERSION
from repro.check import SCHEMA, build_report
from repro.check.diagnostics import diag
from repro.check.linter import LintResult

validate_payload = registry.get(SCHEMA).validate_payload


def sample_report():
    diags = [
        diag("ir/zero-step", "p/DO I", "DO I has step 0"),
        diag("lint/blockable", "p/DO K", "escapes"),
    ]
    verdicts = [LintResult("p", "K", "blockable", "escapes")]
    return build_report(diags, verdicts=verdicts,
                        meta={"tool": "test", "n": 3})


def test_built_report_is_valid():
    doc = sample_report()
    assert doc["schema"] == SCHEMA
    assert validate_payload(doc) == []
    assert doc["summary"] == {"error": 1, "warning": 0, "info": 1}
    assert doc["meta"]["n"] == "3"  # meta values are coerced to strings
    assert doc["verdicts"][0]["loop"] == "K"


def test_report_survives_json_round_trip(tmp_path):
    path = tmp_path / "report.json"
    publish(str(path), sample_report(), producer="repro.check")
    doc = json.loads(path.read_text())
    assert is_envelope(doc)
    assert validate_document(doc) == []
    assert validate_payload(payload_of(doc)) == []


def test_wrong_schema_rejected():
    # schema identity moved to the envelope layer: a stale version is a
    # structured artifact/stale-version problem, not a payload error
    doc = sample_report()
    doc["schema"] = "repro.check/0"
    problems = validate_document(envelope(doc, producer="test"))
    assert [p.rule for p in problems] == [RULE_STALE_VERSION]


def test_tampered_summary_rejected():
    doc = sample_report()
    doc["summary"]["error"] = 7
    assert any("summary" in p for p in validate_payload(doc))


def test_uncatalogued_rule_rejected():
    doc = sample_report()
    doc["diagnostics"][0]["rule"] = "ir/made-up"
    assert any("uncatalogued" in p for p in validate_payload(doc))


def test_bad_severity_rejected():
    doc = sample_report()
    doc["diagnostics"][0]["severity"] = "fatal"
    assert any(p.startswith("diagnostics[0].severity: want one of")
               for p in validate_payload(doc))


def test_bad_verdict_rejected():
    doc = sample_report()
    doc["verdicts"][0]["verdict"] = "maybe"
    assert any(p.startswith("verdicts[0].verdict: want one of")
               for p in validate_payload(doc))


def test_missing_fields_rejected():
    assert validate_payload({"schema": SCHEMA}) != []
    assert validate_payload([]) != []
