"""Cross-process observation: worker snapshots merged into the parent.

Runs a real 2-worker batch under an active observer and asserts the
tentpole invariants: worker-side pass spans appear on the parent
timeline in per-worker pid lanes, and worker counters fold into the
parent's so nothing a worker counted is lost.
"""

from __future__ import annotations

from repro.artifacts import registry
from repro.obs import core as obs_core
from repro.obs import export as obs_export
from repro.serve.jobs import JobSpec
from repro.serve.pool import WorkerPool

SPECS = [
    JobSpec(kind="derive", workload="matmul", timeout_s=120.0),
    JobSpec(kind="derive", workload="aconv", timeout_s=120.0),
]


def run_batch():
    """``(outcomes, pool.stats())`` of SPECS on two workers, no store."""
    with WorkerPool(workers=2, store=None) as pool:
        return pool.run(list(SPECS)), pool.stats()


def observed_batch():
    with obs_core.enabled() as o:
        outcomes, stats = run_batch()
    return o, outcomes, stats


class TestWorkerObservation:
    def test_worker_spans_reach_the_parent_timeline(self):
        o, outcomes, _ = observed_batch()
        assert all(out.status == "computed" for out in outcomes)
        lanes = {s.lane for s in o.spans if s.lane is not None}
        assert lanes  # at least one worker contributed spans
        assert lanes <= {"w0", "w1"}
        worker_passes = [
            s for s in o.spans if s.lane is not None and s.name.startswith("pass:")
        ]
        assert worker_passes  # the pipeline ran *inside* the workers
        roots = {
            s.name for s in o.spans if s.lane is not None and s.depth == 0
        }
        assert roots == {"job:derive:matmul", "job:derive:aconv"}

    def test_chrome_trace_has_one_pid_lane_per_worker(self):
        o, _, _ = observed_batch()
        trace = obs_export.chrome_trace(o)
        events = trace["traceEvents"]
        lanes = sorted({s.lane for s in o.spans if s.lane is not None})
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {1} | {i + 2 for i in range(len(lanes))}
        lane_names = {
            e["args"]["name"]
            for e in events
            if e["name"] == "process_name" and e["pid"] > 1
        }
        assert lane_names == {f"repro worker {lane}" for lane in lanes}

    def test_parent_counters_are_parent_plus_worker_sums(self):
        o, outcomes, _ = observed_batch()
        snaps = [out.obs for out in outcomes]
        assert all(isinstance(s, dict) for s in snaps)
        worker_sums: dict = {}
        for snap in snaps:
            for name, n in snap["counters"].items():
                worker_sums[name] = worker_sums.get(name, 0) + n
        # everything a worker counted must appear, fully, in the parent
        assert worker_sums  # the workers did count something
        for name, total in worker_sums.items():
            assert o.counters.get(name, 0) >= total
        # pipeline counters only ever increment inside the workers, so
        # there the fold is an exact equality
        for name in [n for n in worker_sums if n.startswith("pipeline.")]:
            assert o.counters[name] == worker_sums[name]

    def test_outcome_snapshot_rides_the_result_queue(self):
        _, outcomes, _ = observed_batch()
        validate = registry.get(registry.OBS_SNAPSHOT).validate_payload
        for out in outcomes:
            assert validate(out.obs) == []
            assert "obs" not in out.to_dict()  # the row stays a row

    def test_report_surfaces_per_worker_and_latency(self):
        o, _, stats = observed_batch()
        per_worker = stats["per_worker"]
        assert [e["worker"] for e in per_worker] == [0, 1]
        assert sum(e["jobs"] for e in per_worker) == 2
        busy = [e for e in per_worker if e["jobs"]]
        assert all(e["busy_s"] > 0 for e in busy)
        assert all(0 <= e["utilization"] <= 1 for e in busy)
        # the latency summaries live in the observer, once
        wall = o.histograms["serve.job_wall_s"].summary()
        assert wall["count"] == 2
        assert wall["min"] <= wall["p50"] <= wall["p95"] <= wall["max"]
        assert o.histograms["serve.queue_wait_s"].count == 2

    def test_unobserved_run_ships_no_snapshots(self):
        outcomes, _ = run_batch()
        assert all(out.status == "computed" for out in outcomes)
        assert all(out.obs is None for out in outcomes)
        assert obs_core.current() is None
