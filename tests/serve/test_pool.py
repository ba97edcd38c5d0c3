"""WorkerPool: scheduling, dedup, store short-circuit, fault injection.

The failure rule under test (the part CI must hold fixed): how an
attempt ends decides the job's fate —

- a job that raises anything is ``failed`` after one attempt: a job is
  deterministic, so a re-run would raise the same;
- a job past its ``timeout_s`` is ``timeout`` after one attempt, and its
  worker is killed and respawned;
- only a worker that dies mid-job earns a re-run, at most
  :data:`~repro.serve.pool.CRASH_RETRIES` times, then ``failed``;
  success on a re-run reports ``retried``, with the stale error cleared;
- the pool itself survives every one of them.

Concurrency assertions use *sleeping* probe jobs, which overlap even on
the single-CPU CI runner; CPU-bound speedup is asserted nowhere here.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
import weakref
from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.obs import core as obs_core
from repro.serve import jobs
from repro.serve import pool as pool_module
from repro.serve.jobs import JobSpec
from repro.serve.pool import CRASH_RETRIES, WorkerPool
from repro.serve.store import ArtifactStore


def probe(**options) -> JobSpec:
    options.setdefault("action", "ok")
    return JobSpec(kind="probe", options=options, timeout_s=10.0)


def run_one(spec: JobSpec, **pool_kw):
    pool_kw.setdefault("workers", 1)
    with WorkerPool(**pool_kw) as pool:
        return pool.run([spec])[0], pool


class TestScheduling:
    def test_ok_job_is_computed(self):
        out, _ = run_one(probe(value="v"))
        assert out.status == "computed"
        assert out.ok
        assert out.attempts == 1
        assert out.worker == 0
        assert out.value["probe"] == "v"
        assert out.error is None
        assert out.wall_s > 0

    def test_jobs_distribute_across_workers(self):
        specs = [probe(value=i, seconds=0.3) for i in range(3)]
        with WorkerPool(workers=3) as pool:
            t0 = time.perf_counter()
            outcomes = pool.run(specs)
            elapsed = time.perf_counter() - t0
        assert {o.status for o in outcomes} == {"computed"}
        assert {o.worker for o in outcomes} == {0, 1, 2}
        # sleeps overlap even on one CPU: far below the 0.9s serial time
        assert elapsed < 0.8
        assert pool.stats()["busy_s"] > 0.3

    def test_distinct_pids_per_worker(self):
        with WorkerPool(workers=2) as pool:
            outcomes = pool.run([probe(value=i, seconds=0.1) for i in range(2)])
        assert outcomes[0].value["pid"] != outcomes[1].value["pid"]

    def test_zero_workers_rejected(self):
        with pytest.raises(PipelineError, match="at least 1 worker"):
            WorkerPool(workers=0)

    def test_submit_after_close_rejected(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(PipelineError, match="closed"):
            pool.submit(probe())


class TestDedup:
    def test_identical_submissions_coalesce_to_one_computation(self):
        spec = probe(value="shared")
        with WorkerPool(workers=2) as pool:
            handles = [pool.submit(spec) for _ in range(5)]
            pool.drain()
        outcomes = {id(h.outcome) for h in handles}
        assert len(outcomes) == 1  # one shared outcome object
        out = handles[0].outcome
        assert out.status == "computed"
        assert out.submissions == 5
        assert pool.coalesced == 4
        assert pool.stats()["jobs"] == {"computed": 1}  # one computation ran

    def test_different_specs_do_not_coalesce(self):
        with WorkerPool(workers=1) as pool:
            pool.run([probe(value=1), probe(value=2)])
            assert pool.coalesced == 0
            assert pool.stats()["jobs"] == {"computed": 2}


class TestBoundedMemory:
    def test_resolved_jobs_are_forgotten_but_counted(self):
        with WorkerPool(workers=1) as pool:
            refs = [weakref.ref(pool.run([probe(value=i)])[0])
                    for i in range(5)]
            gc.collect()
            # the handles are gone, so are the outcomes: the pool kept none
            assert [ref() for ref in refs] == [None] * 5
            assert pool.stats()["jobs"] == {"computed": 5}

    def test_pending_jobs_are_counted(self):
        with WorkerPool(workers=1) as pool:
            handle = pool.submit(probe(value="later"))
            assert pool.stats()["jobs"] == {"pending": 1}
            pool.drain()
            assert handle.outcome.status == "computed"
            assert pool.stats()["jobs"] == {"computed": 1}


def _span_with_a_function(spec: JobSpec) -> dict:
    with obs_core.span("probe:fn", cat="test", fn=lambda: None):
        return {"probe": "kept"}


class TestUnpicklableOutput:
    """A worker pickles its own result message, so what will not pickle
    is the job's outcome, never a lost message and a timeout."""

    def test_unpicklable_observer_is_dropped_and_the_job_kept(self, monkeypatch):
        # the pool forks: workers inherit the patched executor table
        monkeypatch.setitem(jobs._EXECUTORS, "probe", _span_with_a_function)
        spec = JobSpec(kind="probe", timeout_s=3.0)
        with obs_core.enabled() as o:
            out, _ = run_one(spec)
        assert out.status == "computed"
        assert out.value["probe"] == "kept"
        assert o.counters["serve.obs.dropped"] == 1
        assert not [s for s in o.spans if s.lane is not None]

    def test_unpicklable_value_fails_without_retry(self, monkeypatch):
        monkeypatch.setitem(jobs._EXECUTORS, "probe",
                            lambda spec: {"probe": lambda: None})
        out, _ = run_one(JobSpec(kind="probe", timeout_s=3.0))
        assert out.status == "failed"
        assert out.attempts == 1
        assert "pickle" in out.error


class TestCancellation:
    def test_queued_job_cancels_running_job_does_not(self):
        with WorkerPool(workers=1) as pool:
            keep = pool.submit(probe(value="keep"))
            drop = pool.submit(probe(value="drop"))
            assert drop.cancel() is True
            assert drop.cancel() is False  # idempotent: already resolved
            pool.drain()
        assert keep.outcome.status == "computed"
        assert drop.outcome.status == "cancelled"
        assert drop.outcome.error == "cancelled before execution"
        assert drop.outcome.attempts == 0
        assert not drop.outcome.ok
        assert keep.cancel() is False  # finished jobs are untouchable

    def test_cancelling_a_job_requeued_after_a_crash_keeps_its_last_error(self):
        # the poll that reaps the dead worker re-queues the job and returns
        # before the next hand-out: that is where the daemon cancels an
        # abandoned one
        with WorkerPool(workers=1) as pool:
            handle = pool.submit(probe(action="kill"))
            while handle.outcome.error is None:
                pool.poll()  # returns once the worker's death is reaped
            assert handle.outcome.status == "pending"
            assert handle.cancel() is True
        out = handle.outcome
        assert out.status == "cancelled"
        assert out.attempts == 1
        assert out.error.startswith(
            "cancelled after 1 attempt(s): worker died mid-job")


class TestFaultInjection:
    def test_raising_job_fails_after_one_attempt(self):
        out, pool = run_one(probe(action="raise"))
        assert out.status == "failed"
        assert out.attempts == 1  # the same input raises the same way
        assert out.error == "RuntimeError: probe raised"
        assert not out.ok
        assert pool.respawns == 0  # a raise costs no worker

    def test_terminal_error_fails_without_retry(self, monkeypatch):
        def verdict(spec):
            raise PipelineError("a compiler verdict")

        # the pool forks: workers inherit the patched executor table
        monkeypatch.setitem(jobs._EXECUTORS, "probe", verdict)
        out, _ = run_one(probe())
        assert out.status == "failed"
        assert out.attempts == 1  # a ReproError is a raise like any other
        assert out.error == "PipelineError: a compiler verdict"

    def test_flaky_job_recovers_as_retried(self, tmp_path):
        spec = probe(action="flaky", flag_file=str(tmp_path / "flag"))
        out, pool = run_one(spec)
        assert out.status == "retried"
        assert out.ok
        assert out.attempts == 2
        assert out.error is None  # stale first-attempt error cleared
        assert out.value["probe"] == "recovered"
        assert pool.respawns == 1  # the re-run ran on a fresh worker

    def test_killed_worker_is_detected_retried_and_respawned(self):
        out, pool = run_one(probe(action="kill"))
        assert out.status == "failed"
        assert out.attempts == 1 + CRASH_RETRIES
        assert "worker died mid-job" in out.error
        assert pool.respawns == 1 + CRASH_RETRIES

    def test_timeout_kills_the_attempt_and_reports_timeout(self):
        spec = JobSpec(
            kind="probe",
            options={"action": "hang", "hang_s": 60.0},
            timeout_s=0.25,
        )
        with WorkerPool(workers=1) as pool:
            (first,) = pool.run([probe()])  # forks the worker
            t0 = time.perf_counter()
            (out,) = pool.run([spec])
            elapsed = time.perf_counter() - t0
            (after,) = pool.run([probe(value="after")])
        assert out.status == "timeout"
        assert out.attempts == 1  # a missed deadline is not re-run
        assert out.error == "timed out after 0.25s"
        assert pool.respawns == 1
        assert after.status == "computed"
        assert after.value["pid"] != first.value["pid"]  # a fresh worker
        # the hung job is the only traffic: its deadline ends the wait
        # itself (one with no timeout never returns)
        assert elapsed < 0.25 + 0.15, elapsed

    def test_pool_survives_a_failure_and_keeps_computing(self):
        with WorkerPool(workers=1) as pool:
            bad, good = pool.run([probe(action="kill"), probe(value="after")])
        assert bad.status == "failed"
        assert good.status == "computed"
        assert good.value["probe"] == "after"


class TestEventDrivenWait:
    """The pool sleeps in one wait that the event itself ends — a result,
    a worker's death, a deadline — never in a clock tick."""

    def test_a_no_op_round_trip_costs_no_tick(self):
        with WorkerPool(workers=1) as pool:
            pool.run([probe()])  # forks the worker
            trips = []
            for _ in range(20):
                t0 = time.perf_counter()
                (out,) = pool.run([probe()])
                trips.append(time.perf_counter() - t0)
                assert out.status == "computed"
        # under one 20 ms tick: no fixed sleep sits between hand-out and collect
        assert statistics.median(trips) < 0.005, trips

    def test_the_longest_timeout_never_fires(self):
        # the largest timeout_s a spec accepts must not break the wait
        # (as poll(2)'s millisecond timeout it would overflow an int)
        spec = JobSpec(kind="probe", options={"seconds": 0.05},
                       timeout_s=threading.TIMEOUT_MAX)
        out, _ = run_one(spec)
        assert out.status == "computed"

    def test_a_killed_worker_is_reaped_through_its_sentinel(self):
        out, pool = run_one(probe(action="kill"))
        assert out.status == "failed"
        assert out.attempts == 1 + CRASH_RETRIES
        assert "worker died mid-job" in out.error
        assert pool.respawns == 1 + CRASH_RETRIES
        # nothing in the pool sleeps: the death itself ended the wait
        source = Path(pool_module.__file__).read_text(encoding="utf-8")
        assert "sleep" not in source and "_POLL_S" not in source


class TestStoreIntegration:
    def test_computed_value_is_published_and_short_circuits_next_pool(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        spec = JobSpec(workload="matmul", timeout_s=60.0)
        with WorkerPool(workers=1, store=store) as pool:
            cold = pool.run([spec])[0]
        assert cold.status == "computed"
        assert cold.stored is True

        fresh = ArtifactStore(str(tmp_path / "cache"))
        with WorkerPool(workers=1, store=fresh) as pool:
            warm = pool.run([spec])[0]
        assert warm.status == "hit"
        assert warm.attempts == 0  # resolved at submit: no worker involved
        assert warm.worker is None
        assert warm.value["fingerprint"] == cold.value["fingerprint"]
        assert warm.value["ir"] == cold.value["ir"]
        assert fresh.hits == 1

    def test_use_store_false_always_recomputes(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        spec = JobSpec(workload="matmul", use_store=False, timeout_s=60.0)
        for _ in range(2):
            with WorkerPool(workers=1, store=store) as pool:
                out = pool.run([spec])[0]
            assert out.status == "computed"
        assert store.stats()["entries"] == 0

    def test_failed_jobs_are_never_stored(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "cache"))
        with WorkerPool(workers=1, store=store) as pool:
            out = pool.run([probe(action="raise")])[0]
        assert out.status == "failed"
        assert store.stats()["entries"] == 0
