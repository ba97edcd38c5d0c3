"""repro.perf.ingest: artifact flattening and content digests."""

from __future__ import annotations

import json

import pytest

from repro.artifacts import envelope, validate_document
from repro.artifacts.envelope import RULE_MALFORMED
from repro.artifacts.validate import RULE_PAYLOAD
from repro.errors import PerfError
from repro.perf import ingest


def enveloped(payload: dict) -> dict:
    return envelope(payload, producer="test", created_s=0.0)


def pipeline_doc(block_wall=0.5, block_size=154):
    return enveloped(pipeline_payload(block_wall, block_size))


def pipeline_payload(block_wall=0.5, block_size=154):
    return {
        "schema": "repro.pipeline/1",
        "algorithm": "lu_nopivot",
        "procedure": "lu_point",
        "passes": ["split", "block"],
        "spans": [
            {"index": 0, "pass": "split", "status": "applied",
             "wall_s": 0.01, "cached": False,
             "ir_size_before": 50, "ir_size_after": 50},
            {"index": 1, "pass": "block", "status": "applied",
             "wall_s": block_wall, "cached": False,
             "ir_size_before": 50, "ir_size_after": block_size},
        ],
        "cache": {"dependence": {"hits": 1, "misses": 2, "hit_rate": 1 / 3,
                                 "entries": 2, "evictions": 0}},
        "verify_enabled": False,
        "elapsed_s": 0.01 + block_wall,
    }


class TestPipelineFlatten:
    def test_per_pass_metrics(self):
        m = ingest.flatten(pipeline_doc())
        assert m["pass:block.wall_s"] == 0.5
        assert m["pass:block.ir_size_after"] == 154.0
        assert m["pass:block.ir_growth"] == 104.0
        assert m["pass:split.ir_growth"] == 0.0
        assert m["passes.count"] == 2.0
        assert m["elapsed_s"] == 0.51
        assert m["analysis_cache.dependence.hits"] == 1.0
        assert m["analysis_cache.dependence.hit_rate"] == pytest.approx(1 / 3)

    def test_duplicate_pass_names_get_suffixes(self):
        doc = pipeline_payload()
        doc["spans"].append(dict(doc["spans"][1], index=2, wall_s=0.7))
        m = ingest.flatten(enveloped(doc))
        assert m["pass:block.wall_s"] == 0.5
        assert m["pass:block.wall_s#2"] == 0.7

    def test_null_and_nonfinite_values_are_skipped(self):
        doc = pipeline_payload()
        doc["spans"][0]["wall_s"] = None
        doc["spans"][1]["wall_s"] = float("inf")
        m = ingest.flatten(enveloped(doc))
        assert "pass:split.wall_s" not in m
        assert "pass:block.wall_s" not in m
        assert m["pass:block.ir_size_after"] == 154.0


class TestOtherSchemas:
    def test_obs_profile(self):
        doc = {
            "schema": "repro.obs/1",
            "meta": {},
            "counters": {"dependence.queries": 41},
            "histograms": {"lat_s": {"count": 3, "total": 6.0, "min": 1.0,
                                     "max": 3.0, "mean": 2.0, "p50": 2.0,
                                     "p95": 2.9, "p99": 2.98}},
            "spans": {"pass:block": {"count": 1, "total_s": 0.5,
                                     "max_s": 0.5}},
            "analysis_cache": {},
            "machine": {"cache": {"accesses": 100, "misses": 7},
                        "tlb": None},
        }
        m = ingest.flatten(enveloped(doc))
        assert m["counter:dependence.queries"] == 41.0
        assert m["hist:lat_s.p95"] == 2.9
        assert m["span:pass:block.total_s"] == 0.5
        assert m["machine.cache.misses"] == 7.0

    def test_serve_report(self, tmp_path):
        """What a serve batch reports to perf is its ``--obs`` profile:
        status counters, latency histograms, one span per job."""
        from repro import cli

        obs = tmp_path / "serve_obs.json"
        specs = tmp_path / "jobs.json"
        specs.write_text(json.dumps([
            {"kind": "probe", "options": {"value": i}, "label": f"p{i}"}
            for i in (1, 2)
        ]))
        assert cli.main(["serve", "batch", str(specs), "--workers", "1",
                         "--no-store", "--obs", str(obs)]) == 0
        m = ingest.flatten(ingest.load_artifact(str(obs)))
        assert m["counter:serve.job.computed"] == 2.0
        assert m["hist:serve.job_wall_s.count"] == 2.0
        assert m["hist:serve.job_wall_s.p95"] > 0
        assert m["hist:serve.queue_wait_s.count"] == 2.0
        assert m["hist:serve.pool.utilization.count"] == 1.0
        assert {"span:job:p1.total_s", "span:job:p2.total_s"} <= set(m)
        assert not any(name.startswith(("job:", "jobs.", "pool.", "latency."))
                       for name in m)

    def test_matrix_report(self):
        doc = {
            "schema": "repro.matrix/1",
            "run": {"elapsed_s": 3.0, "total": 2, "computed": 2},
            "summary": {"cells": 2, "ok": 2, "failed": 0,
                        "speedup": {"count": 2, "min": 1.0, "p25": 1.1,
                                    "p50": 1.2, "p75": 1.3, "max": 1.4,
                                    "mean": 1.2}},
            "rows": [
                {"workload": "lu_nopivot", "recipe": "blocked", "n": 64,
                 "b": 16, "status": "computed", "modeled_s": 0.9,
                 "speedup": 1.4, "miss_ratio": 0.1, "wall_s": 1.5},
                {"workload": "lu_nopivot", "recipe": "blocked", "n": 64,
                 "b": 32, "status": "skipped"},
            ],
        }
        m = ingest.flatten(enveloped(doc))
        assert m["summary.speedup.p50"] == 1.2
        assert m["cell:lu_nopivot:blocked:n64:b16.speedup"] == 1.4
        assert "cell:lu_nopivot:blocked:n64:b32.speedup" not in m

    def test_bench_both_modes(self):
        classic = {
            "schema": "repro.pipeline.bench/1",
            "mode": "inprocess",
            "workloads": {"matmul": {"cold": {"elapsed_s": 0.2},
                                     "warm": {"elapsed_s": 0.01},
                                     "warm_speedup": 20.0}},
            "cache": {},
        }
        mc = ingest.flatten(enveloped(classic))
        assert mc["bench:matmul.cold_s"] == 0.2
        assert mc["bench:matmul.warm_s"] == 0.01
        # the pool mode is gone: its document shape no longer validates
        pool = dict(classic, mode="pool")
        assert RULE_PAYLOAD in {p.rule for p in validate_document(enveloped(pool))}


class TestDispatch:
    def test_unknown_schema_raises(self):
        with pytest.raises(PerfError, match="unsupported artifact schema"):
            ingest.flatten(enveloped({"schema": "repro.unknown/9"}))

    def test_bare_payload_raises_malformed_envelope(self):
        for bare in (pipeline_payload(), {}):
            with pytest.raises(PerfError, match=RULE_MALFORMED):
                ingest.flatten(bare)

    def test_digest_is_content_addressed(self):
        a, b = pipeline_doc(), pipeline_doc()
        assert ingest.artifact_digest(a) == ingest.artifact_digest(b)
        c = pipeline_doc(block_wall=0.6)
        assert ingest.artifact_digest(a) != ingest.artifact_digest(c)
