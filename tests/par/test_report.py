"""The ``repro.par/1`` payload: build, self-validation, perf flattening."""

from __future__ import annotations

from repro.artifacts import (
    payload_of,
    publish,
    registry,
    schema_id_of,
    validate_document,
)
from repro.artifacts.registry import PAR_REPORT
from repro.par.detect import classify_procedure
from repro.par.report import (
    build_report,
    build_workload_entry,
    flatten_report,
)
from repro.pipeline.workloads import get_workload

validate_payload = registry.get(PAR_REPORT).validate_payload


def sample_report(sanitizer=True):
    w = get_workload("matmul")
    proc = w.build()
    verdicts = classify_procedure(proc, w.context(None))
    san = {"loops_checked": 2, "conflicts": [], "clean": True} if sanitizer else None
    entry = build_workload_entry("matmul", proc.name, verdicts, sanitizer=san)
    return build_report([entry], meta={"workloads": "matmul"})


class TestBuildAndValidate:
    def test_valid_report_passes(self):
        assert validate_payload(sample_report()) == []

    def test_totals_sum_workload_counts(self):
        doc = sample_report()
        t = doc["totals"]
        assert t["loops"] == t["parallel"] + t["reduction"] + t["serial"]
        assert t["loops"] == len(doc["workloads"][0]["loops"])

    def test_tampered_totals_rejected(self):
        doc = sample_report()
        doc["totals"]["parallel"] += 1
        assert any("totals" in e for e in validate_payload(doc))

    def test_tampered_counts_rejected(self):
        doc = sample_report()
        doc["workloads"][0]["counts"]["serial"] += 1
        assert any("counts" in e for e in validate_payload(doc))

    def test_unknown_verdict_rejected(self):
        doc = sample_report()
        doc["workloads"][0]["loops"][0]["verdict"] = "vectorized"
        assert any(e.startswith("workloads[0].loops[0].verdict: want one of")
                   for e in validate_payload(doc))

    def test_serial_without_witness_rejected(self):
        w = get_workload("lu_nopivot")
        verdicts = classify_procedure(w.build(), w.context(None))
        entry = build_workload_entry("lu_nopivot", "lu_point", verdicts)
        doc = build_report([entry])
        del doc["workloads"][0]["loops"][0]["witness"]
        assert any("witness" in e for e in validate_payload(doc))

    def test_lying_clean_flag_rejected(self):
        doc = sample_report()
        doc["workloads"][0]["sanitizer"]["clean"] = False
        assert any("contradicts" in e for e in validate_payload(doc))


class TestFlatten:
    def test_deterministic_metrics_present(self):
        m = flatten_report(sample_report())
        t = sample_report()["totals"]
        assert m["par:verdict.parallel"] == t["parallel"]
        assert m["par:verdict.reduction"] == t["reduction"]
        assert m["par:verdict.serial"] == t["serial"]
        assert m["par:loops"] == t["loops"]
        assert m["par:sanitizer.conflicts"] == 0
        assert m["par:matmul.serial"] == t["serial"]


class TestEnvelope:
    def test_write_report_envelopes_and_registers(self, tmp_path):
        import json

        path = tmp_path / "par.json"
        env = publish(str(path), sample_report(), PAR_REPORT,
                      producer="repro.par")
        on_disk = json.load(open(path))
        assert on_disk == env
        assert validate_document(on_disk) == []
        assert schema_id_of(on_disk) == PAR_REPORT
        assert payload_of(on_disk) == on_disk["payload"]

    def test_registry_routes_par_reports(self):
        kind = registry.get(PAR_REPORT)
        assert kind.validate_payload(sample_report()) == []
        assert callable(kind.flatten)
        assert kind.flatten(sample_report())["par:loops"] > 0
