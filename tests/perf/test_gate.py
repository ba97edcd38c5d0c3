"""repro.perf.gate: verdicts, thresholds, baseline files."""

from __future__ import annotations

import pytest

from repro.artifacts import envelope, publish, write_file
from repro.artifacts.envelope import RULE_MALFORMED
from repro.errors import PerfError
from repro.perf import gate


class TestCompare:
    def test_identical_metrics_are_within_noise(self):
        m = {"pass:block.wall_s": 0.5, "pass:block.ir_size_after": 154.0}
        result = gate.compare(m, dict(m), threshold_pct=0.0)
        assert result["verdict"] == "within-noise"
        assert gate.exit_code(result) == gate.EXIT_OK
        assert all(r["verdict"] == "within-noise" for r in result["rows"])

    def test_increase_beyond_threshold_regresses(self):
        result = gate.compare({"m": 1.2}, {"m": 1.0}, threshold_pct=10.0)
        assert result["verdict"] == "regressed"
        assert gate.exit_code(result) == gate.EXIT_REGRESSED
        (row,) = result["rows"]
        assert row["pct"] == pytest.approx(20.0)

    def test_decrease_beyond_threshold_improves(self):
        result = gate.compare({"m": 0.5}, {"m": 1.0}, threshold_pct=10.0)
        assert result["verdict"] == "improved"
        assert gate.exit_code(result) == gate.EXIT_OK

    def test_inside_the_noise_band_either_way(self):
        result = gate.compare({"a": 1.05, "b": 0.95}, {"a": 1.0, "b": 1.0},
                              threshold_pct=10.0)
        assert result["verdict"] == "within-noise"

    def test_zero_threshold_flags_any_change(self):
        result = gate.compare({"m": 154.0}, {"m": 153.0}, threshold_pct=0.0)
        assert result["verdict"] == "regressed"

    def test_growth_from_zero_baseline_regresses(self):
        result = gate.compare({"m": 0.1}, {"m": 0.0}, threshold_pct=50.0)
        assert result["verdict"] == "regressed"
        (row,) = result["rows"]
        assert row["pct"] is None  # infinite percentage is reported as null

    def test_zero_to_zero_is_within_noise(self):
        result = gate.compare({"m": 0.0}, {"m": 0.0}, threshold_pct=0.0)
        assert result["verdict"] == "within-noise"

    def test_metric_absent_from_baseline(self):
        result = gate.compare({"new": 1.0, "old": 1.0}, {"old": 1.0})
        assert result["counts"]["missing-baseline"] == 1
        # one tracked metric *did* have a baseline and passed: still ok
        assert result["verdict"] == "within-noise"

    def test_all_tracked_metrics_missing_baseline(self):
        result = gate.compare({"new": 1.0}, {})
        assert result["verdict"] == "missing-baseline"
        assert gate.exit_code(result) == gate.EXIT_NO_BASELINE

    def test_nothing_tracked_is_missing_baseline(self):
        result = gate.compare({"m": 1.0}, {"m": 1.0}, patterns=("zzz:*",))
        assert result["verdict"] == "missing-baseline"

    def test_patterns_select_the_tracked_set(self):
        current = {"pass:block.wall_s": 9.9, "pass:block.ir_size_after": 154.0}
        baseline = {"pass:block.wall_s": 0.1, "pass:block.ir_size_after": 154.0}
        result = gate.compare(current, baseline,
                              patterns=("pass:*.ir_size_after",),
                              threshold_pct=0.0)
        # the wild wall-time regression is untracked and invisible
        assert result["verdict"] == "within-noise"
        assert [r["metric"] for r in result["rows"]] == [
            "pass:block.ir_size_after"
        ]

    def test_regression_beats_improvement(self):
        result = gate.compare({"a": 2.0, "b": 0.1}, {"a": 1.0, "b": 1.0},
                              threshold_pct=10.0)
        assert result["verdict"] == "regressed"

    def test_negative_threshold_rejected(self):
        with pytest.raises(PerfError):
            gate.compare({}, {}, threshold_pct=-1.0)


class TestDiff:
    def test_union_of_names_with_absent_sides(self):
        rows = gate.diff({"a": 1.0, "both": 2.0}, {"b": 3.0, "both": 3.0})
        by = {r["metric"]: r for r in rows}
        assert set(by) == {"a", "b", "both"}
        assert by["a"]["b"] is None and by["a"]["delta"] is None
        assert by["b"]["a"] is None
        assert by["both"]["delta"] == 1.0
        assert by["both"]["pct"] == pytest.approx(50.0)


class TestBaselineFiles:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "base.json")
        doc = gate.baseline_doc({"m": 1.5}, meta={"git_sha": "abc"})
        publish(path, doc, gate.BASELINE_SCHEMA, producer="repro.perf")
        assert gate.read_baseline(path) == {"m": 1.5}

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        write_file(str(path), envelope({"metrics": {}}, "other/1"))
        with pytest.raises(PerfError, match="is not a"):
            gate.read_baseline(str(path))

    def test_rejects_bare_payload(self, tmp_path):
        path = tmp_path / "bare.json"
        write_file(str(path), gate.baseline_doc({"m": 1.5}))
        with pytest.raises(PerfError, match=RULE_MALFORMED):
            gate.read_baseline(str(path))

    def test_rejects_non_numeric_metrics(self, tmp_path):
        path = tmp_path / "bad.json"
        write_file(str(path), envelope({"metrics": {"m": "fast"}},
                                       gate.BASELINE_SCHEMA))
        with pytest.raises(PerfError, match=r"metrics\.m: want number"):
            gate.read_baseline(str(path))

    def test_rejects_unreadable_and_invalid(self, tmp_path):
        with pytest.raises(PerfError):
            gate.read_baseline(str(tmp_path / "absent.json"))
        bad = tmp_path / "nonjson.json"
        bad.write_text("{")
        with pytest.raises(PerfError):
            gate.read_baseline(str(bad))
