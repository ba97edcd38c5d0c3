"""Batch front end: run job specs, emit a ``repro.serve/1`` report.

.. code-block:: text

    {
      'schema': 'repro.serve/1',
      'meta': {'tool': '...', ...},              # free-form strings
      'jobs': [
        {
          'id': 0,
          'label': 'derive:lu_nopivot',
          'kind': 'derive',
          'workload': 'lu_nopivot',
          'digest': '9f31...',                   # store/dedup address
          'status': 'hit|computed|retried|timeout|failed|cancelled',
          'attempts': 1,                          # 0 for a store hit
          'submissions': 1,                       # >1 when deduplicated
          'worker': 0 | null,
          'wall_s': 0.71,                         # final attempt execution
          'queue_wait_s': 0.002,
          'stored': true,                         # published to the store
          'fingerprint': 'ba77...' | null,        # derived IR, if any
          'error': null | 'message',
          'result': {...} | null                  # job value, 'ir' elided
        }, ...
      ],
      'summary': {'hit': 0, 'computed': 3, ..., 'total': 3, 'ok': 3},
      'pool': {'workers', 'max_retries', 'backoff_s', 'respawns',
               'coalesced', 'busy_s', 'utilization', 'elapsed_s',
               'per_worker': [{'worker', 'jobs', 'busy_s',
                               'utilization'}, ...]},
      'latency': {'wall_s': HISTOGRAM_SUMMARY, 'queue_wait_s': ...},
      'store': {'enabled', 'root', 'hits', 'misses', 'writes',
                'corrupt', 'entries', 'bytes'} ,
      'elapsed_s': 1.23
    }

One row per *deduplicated* job: N identical submissions appear as a
single row with ``submissions: N`` — the honest unit for a service
whose whole point is never computing the same thing twice.
:data:`SHAPE` is the checked structure and :func:`invariants` the
cross-field rules (summary recount, failed ⇒ error); the ``serve-smoke``
CI job validates a real batch.  Reports are written enveloped (see
:mod:`repro.artifacts`).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from repro.artifacts.flatten import HISTOGRAM_SUMMARY, HIST_FIELDS, Sink
from repro.artifacts.registry import SERVE_REPORT as SCHEMA
from repro.artifacts.shape import enum, nullable
from repro.obs import core as _obs
from repro.obs.core import Histogram
from repro.serve.jobs import JobSpec, result_fingerprint
from repro.serve.pool import OK_STATUSES, STATUSES, JobOutcome, WorkerPool
from repro.serve.store import ArtifactStore


def run_batch(
    specs: Sequence[JobSpec],
    workers: int = 2,
    store: Optional[ArtifactStore] = None,
    max_retries: int = 2,
    backoff_s: float = 0.05,
    meta: Optional[dict] = None,
) -> dict:
    """Execute ``specs`` on a fresh pool and return the report dict.

    ``store=None`` disables persistence entirely; pass an
    :class:`ArtifactStore` (default root ``.repro-cache/``) to get
    cross-process reuse.
    """
    t0 = time.perf_counter()
    with WorkerPool(
        workers=workers, store=store, max_retries=max_retries, backoff_s=backoff_s
    ) as pool:
        for spec in specs:
            pool.submit(spec)
        outcomes = pool.drain()  # one per distinct job: duplicates coalesce
        elapsed = time.perf_counter() - t0
        report = build_report(
            outcomes,
            pool=pool,
            store=store,
            elapsed_s=elapsed,
            meta=meta,
        )
    util = report["pool"]["utilization"]
    if util is not None:
        _obs.observe("serve.pool.utilization", util)
    return report


def build_report(
    outcomes: Sequence[JobOutcome],
    pool: Optional[WorkerPool] = None,
    store: Optional[ArtifactStore] = None,
    elapsed_s: float = 0.0,
    meta: Optional[dict] = None,
) -> dict:
    summary = {s: 0 for s in STATUSES}
    jobs = []
    for out in outcomes:
        summary[out.status] += 1
        result = None
        if isinstance(out.value, dict):
            result = {k: v for k, v in out.value.items() if k != "ir"}
        jobs.append(
            {
                "id": out.job_id,
                "label": out.spec.display,
                "kind": out.spec.kind,
                "workload": out.spec.workload,
                "digest": out.digest,
                "status": out.status,
                "attempts": out.attempts,
                "submissions": out.submissions,
                "worker": out.worker,
                "wall_s": round(out.wall_s, 4),
                "queue_wait_s": round(out.queue_wait_s, 4),
                "stored": out.stored,
                "fingerprint": result_fingerprint(out.value),
                "error": out.error,
                "result": result,
            }
        )
    summary["total"] = len(jobs)
    summary["ok"] = sum(summary[s] for s in OK_STATUSES)
    pool_stats = pool.stats() if pool is not None else {}
    workers = pool_stats.get("workers", 0)
    pool_stats["elapsed_s"] = round(elapsed_s, 4)
    pool_stats["utilization"] = (
        round(pool_stats.get("busy_s", 0.0) / (workers * elapsed_s), 4)
        if workers and elapsed_s > 0
        else None
    )
    for entry in pool_stats.get("per_worker", []):
        entry["utilization"] = (
            round(entry["busy_s"] / elapsed_s, 4) if elapsed_s > 0 else None
        )
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "jobs": jobs,
        "summary": summary,
        "pool": pool_stats,
        "latency": _latency(outcomes),
        "store": _store_stats(store, outcomes),
        "elapsed_s": round(elapsed_s, 4),
    }


def _latency(outcomes: Sequence[JobOutcome]) -> dict:
    """Tail-latency summaries over the batch: execution wall time per
    resolved job (store hits are genuine ~0 s responses and count), and
    queue wait for the jobs that actually reached a worker."""
    wall = Histogram()
    queue = Histogram()
    for out in outcomes:
        if out.status != "pending":
            wall.observe(out.wall_s)
        if out.attempts:
            queue.observe(out.queue_wait_s)
    return {"wall_s": wall.summary(), "queue_wait_s": queue.summary()}


def _store_stats(
    store: Optional[ArtifactStore], outcomes: Sequence[JobOutcome]
) -> dict:
    if store is None:
        return {"enabled": False}
    stats = store.stats()
    # workers publish through their own store instances; fold their
    # successful writes into the parent's counter for the report
    stats["writes"] += sum(1 for out in outcomes if out.stored)
    return {"enabled": True, **stats}


SHAPE = {
    "meta": dict,
    "jobs": [{
        "id": int,
        "kind": str,
        "status": enum(*STATUSES),
        "attempts": int,
        "wall_s": float,
        "error": nullable(str),
    }],
    "summary": {**{status: int for status in STATUSES}, "total": int},
    "pool": {"per_worker": nullable([{
        "worker": int,
        "jobs": int,
        "busy_s": float,
        "utilization": nullable(float),
    }])},
    "latency": {"wall_s": HISTOGRAM_SUMMARY,
                "queue_wait_s": HISTOGRAM_SUMMARY},
    "store": dict,
}


def invariants(doc: dict) -> list[str]:
    """``summary`` recounts ``jobs``; a timed-out or failed job says why."""
    errors = []
    jobs, summary = doc["jobs"], doc["summary"]
    for i, job in enumerate(jobs):
        if job["status"] in ("timeout", "failed") and not job.get("error"):
            errors.append(f"jobs[{i}] is {job['status']} but carries no error")
    if summary["total"] != len(jobs):
        errors.append(f"summary.total is {summary['total']}, want {len(jobs)}")
    for status in STATUSES:
        want = sum(1 for job in jobs if job["status"] == status)
        if summary[status] != want:
            errors.append(f"summary.{status} is {summary[status]}, want {want}")
    return errors


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a serve-report payload — the registered
    perf ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    sink.put("elapsed_s", doc.get("elapsed_s"))
    for status, count in sorted((doc.get("summary") or {}).items()):
        sink.put(f"jobs.{status}", count)
    pool = doc.get("pool") or {}
    for field in ("busy_s", "utilization", "respawns", "coalesced"):
        sink.put(f"pool.{field}", pool.get(field))
    for key, h in sorted((doc.get("latency") or {}).items()):
        sink.put_summary(f"latency.{key}", h, HIST_FIELDS)
    for job in doc.get("jobs") or []:
        if not isinstance(job, dict):
            continue
        label = job.get("label", "?")
        sink.put(f"job:{label}.wall_s", job.get("wall_s"))
        sink.put(f"job:{label}.queue_wait_s", job.get("queue_wait_s"))
    return sink.metrics


# ---------------------------------------------------------------------------
# store maintenance records (the ``stats`` / ``gc`` subcommands)
# ---------------------------------------------------------------------------

#: operations a ``repro.serve.store/1`` record can describe
STORE_OPS = ("stats", "gc")


def build_store_ops(op: str, store: ArtifactStore,
                    gc: Optional[dict] = None) -> dict:
    """The ``repro.serve.store/1`` payload for one maintenance
    operation: a ``stats`` snapshot, or a ``gc`` outcome plus the
    post-collection snapshot."""
    from repro.artifacts.registry import SERVE_STORE

    stats = store.stats()
    return {
        "schema": SERVE_STORE,
        "op": op,
        "store": {k: stats[k] for k in
                  ("root", "schema_version", "entries", "bytes")},
        "gc": (
            {"removed": int(gc["removed"]), "kept": int(gc["kept"])}
            if gc is not None else None
        ),
    }


STORE_SHAPE = {
    "op": enum(*STORE_OPS),
    "store": {"root": str, "entries": int, "bytes": int},
    "gc": nullable({"removed": int, "kept": int}),
}


def store_invariants(doc: dict) -> list[str]:
    """A ``gc`` record carries its ``gc`` outcome."""
    if doc["op"] == "gc" and doc.get("gc") is None:
        return ["gc: missing, but op is 'gc'"]
    return []


def flatten_store_ops(doc: dict) -> dict:
    """Flat perf metrics for a store-maintenance payload — the
    registered perf ingestion hook for ``repro.serve.store/1``."""
    sink = Sink()
    store = doc.get("store") or {}
    for key in ("entries", "bytes"):
        sink.put(f"store:{key}", store.get(key))
    gc = doc.get("gc")
    if isinstance(gc, dict):
        for key in ("removed", "kept"):
            sink.put(f"store:gc.{key}", gc.get(key))
    return sink.metrics
