"""The open-loop generator: grids, classification, ramp, knee analysis."""

from __future__ import annotations

import re

import pytest

from repro.artifacts import envelope, registry, validate_document
from repro.artifacts.registry import SERVE_LOAD
from repro.daemon import Daemon, DaemonConfig
from repro.errors import LoadError
from repro.load.gen import BUILTIN_GRIDS, _schedule, check_grid, run_grid
from repro.load.report import analyze, flatten_report
from repro.obs.core import Histogram

validate_payload = registry.get(SERVE_LOAD).validate_payload


class TestGrid:
    def test_builtin_grids_are_valid(self):
        import json
        for name, grid in BUILTIN_GRIDS.items():
            check_grid(json.loads(json.dumps(grid)))

    def test_rejects_junk(self):
        with pytest.raises(LoadError, match="steps"):
            check_grid({"mix": [{"job": {}}]})
        with pytest.raises(LoadError, match="rate"):
            check_grid({"steps": [{"rate": 0}], "mix": [{"job": {}}]})
        with pytest.raises(LoadError, match="mix"):
            check_grid({"steps": [{"rate": 1}]})
        with pytest.raises(LoadError, match="weight"):
            check_grid({"steps": [{"rate": 1}],
                        "mix": [{"job": {}, "weight": 0}]})

    @pytest.mark.parametrize("patch,path", [
        ({"steps": [{"rate": True}]}, "grid.steps[0].rate: want number"),
        ({"mix": [{"job": {}, "weight": True}]},
         "grid.mix[0].weight: want integer"),
        ({"deadline_s": "soon"}, "grid.deadline_s: want number"),
    ])
    def test_rejects_mistyped_fields_by_path(self, patch, path):
        grid = {"steps": [{"rate": 1}], "mix": [{"job": {}}], **patch}
        with pytest.raises(LoadError, match=re.escape(path)):
            check_grid(grid)

    def test_weighted_schedule_is_deterministic(self):
        mix = [{"job": {"a": 1}, "weight": 3}, {"job": {"b": 2}, "weight": 1}]
        schedule = _schedule(mix)
        assert len(schedule) == 4
        assert schedule.count(mix[0]) == 3


class TestAnalysis:
    def step(self, rate, shed=0, p95=0.1):
        return {
            "rate": rate,
            "outcomes": {"shed": shed} if shed else {},
            "latency": {"request_s": {"p95": p95}},
        }

    def hist(self, values):
        h = Histogram()
        for v in values:
            h.observe(v)
        return h

    def test_knee_is_first_shedding_step(self):
        steps = [self.step(2), self.step(8), self.step(16, shed=3),
                 self.step(32, shed=9)]
        a = analyze(steps, self.hist([0.001]), self.hist([0.3]))
        assert a["knee"]["rate"] == 16 and a["knee"]["shed"] == 3
        assert a["max_clean_rate"] == 8
        assert a["warm_speedup"] == pytest.approx(300.0)

    def test_no_knee_when_nothing_shed(self):
        a = analyze([self.step(2), self.step(8)],
                    self.hist([0.001]), self.hist([0.2]))
        assert a["knee"] is None
        assert a["max_clean_rate"] == 8

    def test_speedup_none_without_both_streams(self):
        a = analyze([self.step(2)], self.hist([]), self.hist([0.2]))
        assert a["warm_speedup"] is None
        assert a["warm_count"] == 0


class TestReportShape:
    def payload(self):
        step = {
            "rate": 2.0, "duration_s": 1.0, "offered": 2, "sent": 2,
            "outcomes": {"computed": 2},
            "latency": {k: Histogram().summary()
                        for k in ("request_s", "hit_s", "computed_s")},
            "throughput": 2.0,
        }
        return {
            "endpoint": {"host": "h", "port": 1},
            "grid": {"steps": [], "mix": []},
            "steps": [step],
            "analysis": {"knee": None, "max_clean_rate": 2.0,
                         "warm_p50_s": None, "cold_p50_s": None,
                         "warm_speedup": None, "warm_count": 0,
                         "cold_count": 0},
            "elapsed_s": 1.0,
        }

    def test_valid_payload_passes_registry_validation(self):
        env = envelope(self.payload(), SERVE_LOAD, producer="t")
        assert validate_document(env) == []

    def test_validator_catches_missing_pieces(self):
        doc = self.payload()
        del doc["steps"][0]["latency"]["hit_s"]
        doc["analysis"].pop("warm_count")
        problems = validate_payload(doc)
        assert "steps[0].latency.hit_s: missing" in problems
        assert "analysis.warm_count: missing" in problems

    def test_flatten_emits_load_metrics(self):
        doc = self.payload()
        doc["analysis"]["knee"] = {"step": 0, "rate": 2.0, "shed": 1,
                                   "accepted_p95_s": 0.5}
        metrics = flatten_report(doc)
        assert metrics["load:steps"] == 1.0
        assert metrics["load:offered"] == 2.0
        assert metrics["load:outcomes.computed"] == 2.0
        assert metrics["load:analysis.knee_found"] == 1.0
        assert metrics["load:analysis.knee_rate"] == 2.0
        assert "load:last_step.request_s.p50" in metrics


class TestRampAgainstDaemon:
    def test_short_ramp_end_to_end(self, tmp_path):
        d = Daemon(DaemonConfig(
            workers=1, queue_limit=4,
            store_dir=str(tmp_path / "cache"),
        )).start()
        try:
            grid = {
                "steps": [{"rate": 4, "duration_s": 0.75},
                          {"rate": 12, "duration_s": 0.75}],
                "mix": [
                    {"weight": 2,
                     "job": {"kind": "probe", "workload": "warm",
                             "options": {"action": "ok", "value": 1}}},
                    {"weight": 1, "unique": True,
                     "job": {"kind": "probe", "workload": "cold",
                             "options": {"action": "ok", "seconds": 0.05}}},
                ],
                "deadline_s": 20.0,
            }
            payload = run_grid(grid, "127.0.0.1", d.port)
            assert validate_payload(payload) == []
            total = sum(s["offered"] for s in payload["steps"])
            resolved = sum(
                sum(v for k, v in s["outcomes"].items()
                    if k in ("hit", "computed", "retried"))
                for s in payload["steps"]
            )
            shed = sum(s["outcomes"].get("shed", 0)
                       for s in payload["steps"])
            assert resolved + shed == total  # nothing lost or hung
            a = payload["analysis"]
            # the repeated probe warms after its first compute; the
            # unique probes always compute — both streams must exist
            assert a["warm_count"] > 0 and a["cold_count"] > 0
            assert a["warm_p50_s"] < a["cold_p50_s"]
        finally:
            d.request_drain()
            assert d.wait_stopped(30.0)
