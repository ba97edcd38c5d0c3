"""A fault-isolating ``multiprocessing`` worker pool for pipeline jobs.

The pool owns N single-purpose worker processes, each looping over a
private task queue and posting to one shared result queue.  The parent
is the only scheduler: it assigns a job to a specific idle worker (so
it always knows who is computing what), stamps a deadline from the
job's ``timeout_s``, and on every poll tick

- **collects** finished attempts (success, deterministic failure, or
  retryable error),
- **kills and respawns** workers whose deadline passed (the job is
  retried with exponential backoff, up to the retry budget, then
  reported ``timeout``),
- **detects crashed workers** (process died mid-job: SIGKILL, OOM, a
  segfaulting native library) and retries the job the same way, then
  reports ``failed``.

Retry policy: ``max_retries`` is the number of *re*-executions after
the first attempt; :data:`repro.serve.jobs.TERMINAL_ERRORS`
(deterministic compiler verdicts like a failed ``--check`` gate) are
never retried.  A respawned worker gets a fresh task queue and a new
generation number, so results from a killed process are recognized as
stale and dropped.

Deduplication: submissions are keyed by their artifact-store digest;
an identical in-flight job coalesces into the existing one (one
execution, shared outcome).  When a store is attached, ``submit``
consults it first — a hit resolves immediately and never spawns a
worker — and workers publish computed values back to the store.

Everything mirrors into :mod:`repro.obs` when an observer is active:
``serve.store.hit/miss``, ``serve.job.<status>``, queue-wait and
wall-time histograms, one span event per finished job.  Observation
also **crosses the process boundary**: when the parent is observing at
assignment time, the task message tells the worker to activate its own
observer around the job, snapshot it (:mod:`repro.obs.snapshot`), and
ship the snapshot back with the result.  The parent merges each
snapshot into its observer — counters summed, histograms folded, spans
aligned onto the parent clock at the job's assignment time and tagged
with the worker's lane (``w<slot>``) — so exported Chrome traces get
one pid lane per worker and metrics cover the work that actually
dominates a pool run's wall time.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.errors import PipelineError
from repro.obs import core as _obs
from repro.obs import snapshot as _snap
from repro.serve.jobs import (
    TERMINAL_ERRORS,
    JobSpec,
    execute_job,
    job_key,
    result_fingerprint,
)
from repro.serve.store import ArtifactStore, key_digest

#: statuses of a job that produced its value
OK_STATUSES = ("hit", "computed", "retried")

#: terminal job statuses as they appear in job rows
STATUSES = OK_STATUSES + ("timeout", "failed", "cancelled")

_POLL_S = 0.02
_KILL_GRACE_S = 0.5


@dataclass
class JobOutcome:
    """The resolved fate of one (deduplicated) job."""

    job_id: int
    spec: JobSpec
    digest: str
    status: str = "pending"
    value: Optional[dict] = None
    error: Optional[str] = None
    attempts: int = 0
    worker: Optional[int] = None
    wall_s: float = 0.0
    queue_wait_s: float = 0.0
    submissions: int = 1
    stored: bool = False
    #: the worker-side obs snapshot (repro.obs.snapshot/1) of the final
    #: accepted attempt, when the parent was observing; None otherwise
    obs: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return self.status in OK_STATUSES

    def to_dict(self) -> dict:
        """The job row: what ``serve submit|batch`` print per job and what
        the daemon answers a request with.  One row per *deduplicated*
        job (N identical submissions are one row with ``submissions:
        N``); ``result`` is the job value with the bulky ``ir`` text
        elided — the ``fingerprint`` keeps its identity."""
        result = None
        if isinstance(self.value, dict):
            result = {k: v for k, v in self.value.items() if k != "ir"}
        return {
            "id": self.job_id,
            "label": self.spec.display,
            "kind": self.spec.kind,
            "workload": self.spec.workload,
            "digest": self.digest,
            "status": self.status,
            "attempts": self.attempts,  # 0 for a store hit
            "submissions": self.submissions,
            "worker": self.worker,
            "wall_s": round(self.wall_s, 4),  # final attempt's execution
            "queue_wait_s": round(self.queue_wait_s, 4),
            "stored": self.stored,  # a worker published it to the store
            "fingerprint": result_fingerprint(self.value),
            "error": self.error,
            "result": result,
        }


class JobHandle:
    """Await/cancel surface for one submitted job (shared when coalesced)."""

    def __init__(self, pool: "WorkerPool", job: "_Job") -> None:
        self._pool = pool
        self._job = job

    @property
    def done(self) -> bool:
        return self._job.outcome.status != "pending"

    @property
    def outcome(self) -> JobOutcome:
        return self._job.outcome

    def cancel(self) -> bool:
        """Cancel if still queued (running/finished jobs are unaffected)."""
        return self._pool._cancel(self._job)


@dataclass
class _Job:
    outcome: JobOutcome
    key: Optional[tuple]  # store key; None = do not store
    submitted_at: float = 0.0
    assigned_at: float = 0.0
    not_before: float = 0.0  # backoff gate for the next attempt
    retry_budget: int = 0

    @property
    def spec(self) -> JobSpec:
        return self.outcome.spec


class _Worker:
    """One slot: a live process + its private queues + a generation.

    Both queues are per-worker on purpose: SIGKILL-ing a process that
    holds a shared queue's feeder lock could wedge every other worker,
    while a private queue dies (unused) with its process.
    """

    __slots__ = ("slot", "gen", "process", "task_q", "result_q", "job")

    def __init__(self, slot: int, gen: int, ctx, store_args) -> None:
        self.slot = slot
        self.gen = gen
        self.job: Optional[_Job] = None
        self.task_q = ctx.Queue()
        self.result_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(slot, gen, self.task_q, self.result_q, store_args),
            daemon=True,
            name=f"repro-serve-worker-{slot}",
        )
        self.process.start()


def _worker_main(slot: int, gen: int, task_q, result_q, store_args) -> None:
    store = ArtifactStore(*store_args) if store_args is not None else None
    while True:
        item = task_q.get()
        if item is None:
            return
        job_id, attempt, spec, key, observing = item
        t0 = time.perf_counter()
        obs_obj = _obs.Obs() if observing else None
        try:
            if obs_obj is not None:
                with _obs.enabled(obs_obj):
                    value = execute_job(spec)
            else:
                value = execute_job(spec)
        except TERMINAL_ERRORS as e:
            result_q.put((slot, gen, job_id, attempt, "fail", None,
                          f"{type(e).__name__}: {e}", time.perf_counter() - t0,
                          _maybe_snapshot(obs_obj)))
            continue
        except BaseException as e:
            result_q.put((slot, gen, job_id, attempt, "error", None,
                          f"{type(e).__name__}: {e}", time.perf_counter() - t0,
                          _maybe_snapshot(obs_obj)))
            continue
        stored = False
        if store is not None and key is not None:
            try:
                store.put(key, value)
                stored = True
            except Exception:
                pass  # a sick store costs durability, never the job
        result_q.put((slot, gen, job_id, attempt, "ok", (value, stored),
                      None, time.perf_counter() - t0, _maybe_snapshot(obs_obj)))


def _maybe_snapshot(obs_obj) -> Optional[dict]:
    """Snapshot a worker-side observer; a failed snapshot (unpicklable
    span arg etc.) costs observability, never the job result."""
    if obs_obj is None:
        return None
    try:
        return _snap.snapshot(obs_obj)
    except Exception:
        return None


class WorkerPool:
    """See the module docstring.  Use as a context manager or ``close()``."""

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ArtifactStore] = None,
        max_retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        if workers < 1:
            raise PipelineError(f"need at least 1 worker, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        self.workers = workers
        self.store = store
        self.max_retries = max_retries
        self.backoff_s = backoff_s
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._slots: list[Optional[_Worker]] = [None] * workers
        self._gen = 0
        self._jobs: list[_Job] = []
        self._inflight: dict[str, _Job] = {}  # digest -> unresolved job
        self._pending: list[_Job] = []
        self._closed = False
        self._created = time.perf_counter()
        self.respawns = 0
        self.coalesced = 0
        self.busy_s = 0.0  # parent-measured worker-occupied seconds
        # per-slot breakdown (slots survive respawns, so this is per
        # worker *lane*): attempts that returned a result, busy seconds
        self.worker_stats = [
            {"jobs": 0, "busy_s": 0.0} for _ in range(workers)
        ]

    # ---- submission -------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        if self._closed:
            raise PipelineError("pool is closed")
        key = job_key(spec)
        digest = self.store.digest(key) if self.store is not None else key_digest(key)

        existing = self._inflight.get(digest)
        if existing is not None:  # identical in-flight job: coalesce
            existing.outcome.submissions += 1
            self.coalesced += 1
            _obs.count("serve.dedup.coalesced")
            return JobHandle(self, existing)

        job = _Job(
            outcome=JobOutcome(
                job_id=len(self._jobs), spec=spec, digest=digest
            ),
            key=key if (spec.use_store and self.store is not None) else None,
            submitted_at=time.perf_counter(),
            retry_budget=(
                spec.max_retries if spec.max_retries is not None else self.max_retries
            ),
        )
        self._jobs.append(job)

        if spec.use_store and self.store is not None:
            hit, value = self.store.get(key)
            if hit:  # short-circuit: no queue, no worker
                job.outcome.status = "hit"
                job.outcome.value = value
                job.outcome.attempts = 0
                _obs.count("serve.store.hit")
                self._report_obs(job)
                return JobHandle(self, job)
            _obs.count("serve.store.miss")

        self._inflight[digest] = job
        self._pending.append(job)
        return JobHandle(self, job)

    def run(self, specs: Sequence[JobSpec]) -> list[JobOutcome]:
        """Submit everything, drain, and return one outcome per spec
        (coalesced submissions share an outcome object)."""
        handles = [self.submit(s) for s in specs]
        self.drain()
        return [h.outcome for h in handles]

    # ---- scheduling -------------------------------------------------------
    def drain(self) -> list[JobOutcome]:
        """Block until every submitted job is resolved."""
        while self._inflight:
            self.poll()
        return [j.outcome for j in self._jobs]

    def as_resolved(self, handles: Sequence[JobHandle]) -> Iterator[JobHandle]:
        """Yield each of ``handles`` once its job is resolved, polling in
        between — for drivers (``repro.matrix``) that act on outcomes as
        they land instead of after a full :meth:`drain`.  Everything
        already resolved is yielded before the next tick."""
        pending = list(handles)
        while pending:
            still = []
            for handle in pending:
                if handle.done:
                    yield handle
                else:
                    still.append(handle)
            if len(still) == len(pending):
                self.poll()
            pending = still

    def poll(self) -> None:
        """One scheduler tick: assign pending jobs, collect finished
        attempts, reap timeouts and dead workers.  Blocks for at most the
        internal poll interval."""
        self._assign()
        self._collect(block=True)
        self._reap_timeouts()
        self._reap_deaths()

    def _assign(self) -> None:
        if not self._pending:
            return
        now = time.perf_counter()
        for slot in range(self.workers):
            if not self._pending:
                return
            worker = self._slots[slot]
            if worker is not None and worker.job is not None:
                continue
            at = next(
                (i for i, j in enumerate(self._pending) if j.not_before <= now),
                None,
            )
            if at is None:
                return
            job = self._pending.pop(at)
            if worker is None or not worker.process.is_alive():
                worker = self._respawn(slot, count=worker is not None)
            job.assigned_at = now
            if job.outcome.attempts == 0:
                job.outcome.queue_wait_s = now - job.submitted_at
                _obs.observe("serve.queue_wait_s", job.outcome.queue_wait_s)
            job.outcome.attempts += 1
            job.outcome.worker = slot
            worker.job = job
            worker.task_q.put(
                (job.outcome.job_id, job.outcome.attempts, job.spec, job.key,
                 _obs.current() is not None)
            )

    def _collect(self, block: bool) -> None:
        got = False
        for worker in list(self._slots):
            if worker is None:
                continue
            while True:
                try:
                    msg = worker.result_q.get_nowait()
                except queue_mod.Empty:
                    break
                except (OSError, EOFError):
                    break  # queue died with its process; _reap_deaths handles
                got = True
                slot, gen, job_id, attempt, kind, payload, error, wall, snap = msg
                if worker.gen != gen:
                    continue  # stale: posted by a process we already killed
                job = worker.job
                if job is None or job.outcome.job_id != job_id:
                    continue  # stale: a prior attempt of a reassigned job
                worker.job = None
                occupied = time.perf_counter() - job.assigned_at
                self.busy_s += occupied
                self.worker_stats[slot]["jobs"] += 1
                self.worker_stats[slot]["busy_s"] += occupied
                if attempt != job.outcome.attempts:
                    continue
                self._merge_worker_obs(job, slot, snap)
                if kind == "ok":
                    value, stored = payload
                    job.outcome.value = value
                    job.outcome.stored = stored
                    job.outcome.wall_s = wall
                    self._resolve(
                        job, "computed" if job.outcome.attempts == 1 else "retried"
                    )
                elif kind == "fail":  # deterministic: no retry
                    job.outcome.error = error
                    job.outcome.wall_s = wall
                    self._resolve(job, "failed")
                else:  # retryable error raised inside the job
                    self._retry_or_fail(job, error, terminal_status="failed")
        if block and not got:
            time.sleep(_POLL_S)

    def _reap_timeouts(self) -> None:
        now = time.perf_counter()
        for slot in range(self.workers):
            worker = self._slots[slot]
            if worker is None or worker.job is None:
                continue
            job = worker.job
            if now - job.assigned_at < job.spec.timeout_s:
                continue
            self.busy_s += now - job.assigned_at
            self.worker_stats[slot]["busy_s"] += now - job.assigned_at
            self._kill(slot)
            self._retry_or_fail(
                job,
                f"timed out after {job.spec.timeout_s:g}s",
                terminal_status="timeout",
            )

    def _reap_deaths(self) -> None:
        for slot in range(self.workers):
            worker = self._slots[slot]
            if worker is None or worker.job is None:
                continue
            if worker.process.is_alive():
                continue
            job = worker.job
            occupied = time.perf_counter() - job.assigned_at
            self.busy_s += occupied
            self.worker_stats[slot]["busy_s"] += occupied
            exitcode = worker.process.exitcode
            self._respawn(slot)
            self._retry_or_fail(
                job,
                f"worker died mid-job (exitcode {exitcode})",
                terminal_status="failed",
            )

    def _merge_worker_obs(self, job: _Job, slot: int, snap) -> None:
        """Fold a worker's obs snapshot into the parent observer, anchored
        at the moment the job was handed to the worker (parent clock)."""
        if snap is None:
            return
        job.outcome.obs = snap
        o = _obs.current()
        if o is None:
            return
        try:
            _snap.merge(o, snap, anchor_s=job.assigned_at, lane=f"w{slot}")
        except Exception:
            _obs.count("serve.obs.merge_failed")

    # ---- resolution -------------------------------------------------------
    def _retry_or_fail(self, job: _Job, error: str, terminal_status: str) -> None:
        if job.outcome.attempts <= job.retry_budget:
            job.not_before = time.perf_counter() + self.backoff_s * (
                2 ** (job.outcome.attempts - 1)
            )
            job.outcome.error = error  # last error so far; cleared on success
            _obs.count("serve.job.retry")
            self._pending.append(job)
            return
        job.outcome.error = error
        self._resolve(job, terminal_status)

    def _resolve(self, job: _Job, status: str) -> None:
        job.outcome.status = status
        if status in OK_STATUSES:
            job.outcome.error = None
        self._inflight.pop(job.outcome.digest, None)
        _obs.observe("serve.job_wall_s", job.outcome.wall_s)
        self._report_obs(job)

    def _report_obs(self, job: _Job) -> None:
        o = _obs.current()
        out = job.outcome
        _obs.count(f"serve.job.{out.status}")
        if o is not None:
            o.event(
                f"job:{job.spec.display}",
                cat="serve.job",
                start=job.assigned_at or job.submitted_at,
                dur=out.wall_s,
                status=out.status,
                attempts=out.attempts,
                worker=out.worker,
            )

    def _cancel(self, job: _Job) -> bool:
        if job.outcome.status != "pending" or job not in self._pending:
            return False
        self._pending.remove(job)
        job.outcome.error = "cancelled before execution"
        self._resolve(job, "cancelled")
        return True

    # ---- worker lifecycle -------------------------------------------------
    def _respawn(self, slot: int, count: bool = True) -> _Worker:
        old = self._slots[slot]
        if old is not None and old.process.is_alive():
            old.process.terminate()
            old.process.join(_KILL_GRACE_S)
            if old.process.is_alive():
                old.process.kill()
                old.process.join(_KILL_GRACE_S)
        if old is not None and count:
            self.respawns += 1
            _obs.count("serve.worker.respawn")
        self._gen += 1
        store_args = (
            (str(self.store.root), self.store.schema_version)
            if self.store is not None
            else None
        )
        worker = _Worker(slot, self._gen, self._ctx, store_args)
        self._slots[slot] = worker
        return worker

    def _kill(self, slot: int) -> None:
        self._respawn(slot)  # killing and respawning are one motion here

    def close(self) -> None:
        self._closed = True
        for worker in self._slots:
            if worker is None:
                continue
            if worker.process.is_alive():
                try:
                    worker.task_q.put(None)
                except Exception:
                    pass
        deadline = time.perf_counter() + _KILL_GRACE_S
        for worker in self._slots:
            if worker is None:
                continue
            worker.process.join(max(0.0, deadline - time.perf_counter()))
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(_KILL_GRACE_S)
        self._slots = [None] * self.workers

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ---- stats ------------------------------------------------------------
    def stats(self) -> dict:
        """Counters so far; ``utilization`` is worker-occupied time over
        the wall time the lanes have existed (since the pool was created)."""
        elapsed = max(time.perf_counter() - self._created, 1e-9)
        return {
            "workers": self.workers,
            "max_retries": self.max_retries,
            "backoff_s": self.backoff_s,
            "respawns": self.respawns,
            "coalesced": self.coalesced,
            "jobs": dict(Counter(job.outcome.status for job in self._jobs)),
            "busy_s": round(self.busy_s, 4),
            "elapsed_s": round(elapsed, 4),
            "utilization": round(self.busy_s / (self.workers * elapsed), 4),
            "per_worker": [
                {
                    "worker": slot,
                    "jobs": ws["jobs"],
                    "busy_s": round(ws["busy_s"], 4),
                    "utilization": round(ws["busy_s"] / elapsed, 4),
                }
                for slot, ws in enumerate(self.worker_stats)
            ],
        }
