"""A fault-isolating ``multiprocessing`` worker pool for pipeline jobs.

The pool owns N single-purpose worker processes, each looping over a
private task queue and answering down a private result pipe.  The
parent is the only scheduler: it assigns a job to a specific idle
worker (so it always knows who is computing what) and stamps a deadline
from the job's ``timeout_s``.  Then it blocks in one
:func:`multiprocessing.connection.wait` until something happens — a
result pipe turns readable, a busy worker's process sentinel fires, the
nearest deadline comes due, or the caller's wake-up readable turns
readable — and acts on it.  Nothing polls on a clock.

How an attempt ends decides the job's fate, and nothing else does:

- it returned a value: ``computed`` (``retried`` when an earlier
  attempt's worker died);
- it raised anything: ``failed`` — a job is deterministic, so a second
  attempt would raise the same;
- it outlived ``timeout_s``: its worker is killed and respawned, and the
  job is ``timeout``;
- its worker died mid-job (SIGKILL, OOM, a segfaulting native library):
  the worker is respawned and the job re-queued at once, at most
  :data:`CRASH_RETRIES` times, then ``failed``.

A respawned worker gets a fresh task queue and result pipe, so nothing a
killed process wrote can reach its successor.

Deduplication: submissions are keyed by their artifact-store digest;
an identical in-flight job coalesces into the existing one (one
execution, shared outcome).  When a store is attached, ``submit``
consults it first — a hit resolves immediately and never spawns a
worker — and workers publish computed values back to the store.

Everything mirrors into :mod:`repro.obs` when an observer is active:
``serve.store.hit/miss``, ``serve.job.<status>``, queue-wait and
wall-time histograms, one span event per finished job.  Observation
also **crosses the process boundary**: when the parent is observing at
assignment time, the worker observes the job itself and ships that
:class:`~repro.obs.core.Obs` back beside the result; the parent folds it
in with :meth:`Obs.merge`, spans aligned onto the parent clock at the
job's assignment time and tagged with the worker's lane (``w<slot>``),
so exported Chrome traces get one pid lane per worker.

A worker pickles its result itself, where a failure is the job's and not
a silently dropped message: a value that will not pickle fails the job
like any raise, an observer that will not pickle is dropped
(``serve.obs.dropped``).
A resolved job leaves only a status count; callers keep their handles.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from collections import Counter
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Iterator, Optional, Sequence

from repro.errors import PipelineError
from repro.obs import core as _obs
from repro.serve.jobs import JobSpec, execute_job, job_key, result_fingerprint
from repro.serve.store import ArtifactStore, key_digest

#: statuses of a job that produced its value
OK_STATUSES = ("hit", "computed", "retried")

#: terminal job statuses as they appear in job rows
STATUSES = OK_STATUSES + ("timeout", "failed", "cancelled")

#: re-runs a job gets after its worker died mid-job; nothing else re-runs
CRASH_RETRIES = 2

_KILL_GRACE_S = 0.5
_MAX_WAIT_S = 86_400.0  # one wait's longest timeout; a later deadline waits again


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

    @property
    def spec(self) -> JobSpec:
        return self.outcome.spec


class _Worker:
    """One slot: a live process + its private task queue and result pipe.

    Both channels are per-worker on purpose: SIGKILL-ing a process that
    holds a shared queue's feeder lock could wedge every other worker,
    while a private channel dies (unused) with its process.
    """

    __slots__ = ("process", "task_q", "results", "job")

    def __init__(self, slot: int, ctx, store_args) -> None:
        self.job: Optional[_Job] = None
        self.task_q = ctx.Queue()
        self.results, results_w = ctx.Pipe(duplex=False)
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_q, results_w, store_args),
            daemon=True,
            name=f"repro-serve-worker-{slot}",
        )
        self.process.start()
        results_w.close()  # the worker's is the only write end


def _worker_main(task_q, results, store_args) -> None:
    store = ArtifactStore(*store_args) if store_args is not None else None
    while True:
        item = task_q.get()
        if item is None:
            return
        job_id, spec, key, observing = item
        t0 = time.perf_counter()
        obs_obj = _obs.Obs() if observing else None
        stored = False
        try:
            if obs_obj is not None:
                with _obs.enabled(obs_obj):
                    value = execute_job(spec)
            else:
                value = execute_job(spec)
            ok, payload = True, pickle.dumps(value)
        except BaseException as e:
            ok, payload = False, f"{type(e).__name__}: {e}"
        if ok and store is not None and key is not None:
            try:
                store.put(key, value)
                stored = True
            except Exception:
                pass  # a sick store costs durability, never the job
        results.send((job_id, ok, payload, stored, time.perf_counter() - t0,
                      _pickled(obs_obj)))


def _pickled(obs_obj) -> Optional[bytes]:
    """The worker's observer as bytes; ``b""`` when it will not pickle —
    that costs the observation, never the job."""
    if obs_obj is None:
        return None
    try:
        return pickle.dumps(obs_obj)
    except Exception:
        return b""


class WorkerPool:
    """See the module docstring.  Use as a context manager or ``close()``."""

    def __init__(
        self,
        workers: int = 2,
        store: Optional[ArtifactStore] = None,
    ) -> None:
        if workers < 1:
            raise PipelineError(f"need at least 1 worker, got {workers}")
        methods = multiprocessing.get_all_start_methods()
        self.workers = workers
        self.store = store
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0]
        )
        self._slots: list[Optional[_Worker]] = [None] * workers
        self._submitted = 0  # job ids handed out
        self._resolved: Counter = Counter()  # status -> resolved jobs
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
                job_id=self._submitted, spec=spec, digest=digest
            ),
            key=key if (spec.use_store and self.store is not None) else None,
            submitted_at=time.perf_counter(),
        )
        self._submitted += 1

        if spec.use_store and self.store is not None:
            hit, value = self.store.get(key)
            if hit:  # short-circuit: no queue, no worker
                job.outcome.status = "hit"
                job.outcome.value = value
                job.outcome.attempts = 0
                _obs.count("serve.store.hit")
                self._record(job)
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
    def drain(self) -> None:
        """Block until every submitted job is resolved."""
        while self._inflight:
            self.poll()

    def as_resolved(self, handles: Sequence[JobHandle]) -> Iterator[JobHandle]:
        """Yield each of ``handles`` once its job is resolved, polling in
        between — for drivers (``repro.matrix``) that act on outcomes as
        they land instead of after a full :meth:`drain`.  Everything
        already resolved is yielded before the next wait."""
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

    def poll(self, wake=None) -> None:
        """One scheduler step: assign pending jobs, block until an event,
        then collect finished attempts and reap overdue and dead workers.
        The events: a worker's result, a busy worker's death (its process
        sentinel), the nearest job deadline, and ``wake``
        (any readable ``connection.wait`` takes; the caller empties it)
        turning readable.  Idle and without ``wake``, it never returns."""
        self._assign()
        now = time.perf_counter()
        busy = [w for w in self._slots if w is not None and w.job is not None]
        due = [w.job.assigned_at + w.job.spec.timeout_s - now for w in busy]
        ready = [w.results for w in self._slots
                 if w is not None and not w.results.closed]
        ready += [w.process.sentinel for w in busy] + [wake] * (wake is not None)
        # the cap keeps a timeout_s near threading.TIMEOUT_MAX from
        # overflowing poll(2)'s millisecond timeout
        wait(ready, max(0.0, min([_MAX_WAIT_S] + due)) if due else None)
        self._collect()
        self._reap()

    def _assign(self) -> None:
        now = time.perf_counter()
        for slot in range(self.workers):
            if not self._pending:
                return
            worker = self._slots[slot]
            if worker is not None and worker.job is not None:
                continue
            job = self._pending.pop(0)
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
                (job.outcome.job_id, job.spec, job.key, _obs.current() is not None)
            )

    def _collect(self) -> None:
        for slot, worker in enumerate(self._slots):
            if worker is None or worker.results.closed:
                continue
            while worker.results.poll():
                try:
                    job_id, ok, payload, stored, wall, obs = worker.results.recv()
                except (OSError, EOFError):
                    worker.results.close()  # died with its process: _reap acts
                    break
                job = worker.job
                if job is None or job.outcome.job_id != job_id:
                    continue  # a result for no job this worker was handed
                worker.job = None
                occupied = time.perf_counter() - job.assigned_at
                self.busy_s += occupied
                self.worker_stats[slot]["jobs"] += 1
                self.worker_stats[slot]["busy_s"] += occupied
                self._merge_worker_obs(job, slot, obs)
                job.outcome.wall_s = wall
                if ok:
                    job.outcome.value = pickle.loads(payload)
                    job.outcome.stored = stored
                    self._resolve(
                        job, "computed" if job.outcome.attempts == 1 else "retried"
                    )
                else:
                    job.outcome.error = payload
                    self._resolve(job, "failed")

    def _reap(self) -> None:
        """Kill and respawn each worker past its job's deadline (the job
        is ``timeout``), respawn each one that died mid-job (the job is
        re-queued, or ``failed`` once its re-runs are spent)."""
        now = time.perf_counter()
        for slot, worker in enumerate(self._slots):
            job = worker.job if worker is not None else None
            if job is None:
                continue
            if now - job.assigned_at >= job.spec.timeout_s:
                job.outcome.error = f"timed out after {job.spec.timeout_s:g}s"
                status = "timeout"
            elif not worker.process.is_alive():
                job.outcome.error = (
                    f"worker died mid-job (exitcode {worker.process.exitcode})")
                status = "failed"
            else:
                continue
            self.busy_s += now - job.assigned_at
            self.worker_stats[slot]["busy_s"] += now - job.assigned_at
            self._respawn(slot)  # killing and respawning are one motion
            if status == "failed" and job.outcome.attempts <= CRASH_RETRIES:
                _obs.count("serve.job.retry")  # the error stays until a success
                self._pending.append(job)
            else:
                self._resolve(job, status)

    def _merge_worker_obs(self, job: _Job, slot: int, blob) -> None:
        """Fold a worker's pickled observer (``b""``: it would not pickle)
        in, anchored when the job was handed to the worker."""
        o = _obs.current()
        if o is None or blob is None:
            return
        if not blob:
            o.count("serve.obs.dropped")
            return
        o.merge(pickle.loads(blob), anchor_s=job.assigned_at, lane=f"w{slot}")

    # ---- resolution -------------------------------------------------------
    def _resolve(self, job: _Job, status: str) -> None:
        job.outcome.status = status
        if status in OK_STATUSES:
            job.outcome.error = None
        self._inflight.pop(job.outcome.digest, None)
        _obs.observe("serve.job_wall_s", job.outcome.wall_s)
        self._record(job)

    def _record(self, job: _Job) -> None:
        """Count a resolved job; the pool keeps no reference to it."""
        o = _obs.current()
        out = job.outcome
        self._resolved[out.status] += 1
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
        n = job.outcome.attempts  # > 0: re-queued after its worker died
        job.outcome.error = (f"cancelled after {n} attempt(s): {job.outcome.error}"
                             if n else "cancelled before execution")
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
        store_args = (
            (str(self.store.root), self.store.schema_version)
            if self.store is not None
            else None
        )
        worker = _Worker(slot, self._ctx, store_args)
        self._slots[slot] = worker
        return worker

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
            "respawns": self.respawns,
            "coalesced": self.coalesced,
            "jobs": {**self._resolved,
                     **({"pending": len(self._inflight)} if self._inflight else {})},
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
