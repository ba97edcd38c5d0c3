"""Concurrent compile-and-run service over a persistent store (``repro.serve``).

The rest of the stack derives, checks, and benchmarks one procedure at a
time, in process, and every :class:`~repro.pipeline.cache.AnalysisCache`
win dies with the interpreter.  This subsystem turns those derivations
into *jobs* served concurrently and cached durably:

- :mod:`repro.serve.store` — an on-disk content-addressed artifact store
  under ``.repro-cache/``, keyed by (input IR fingerprint, pass recipe,
  context facts, schema version), with atomic write-via-rename and
  checksum-verified reads (a truncated or corrupted entry is a miss,
  never a crash);
- :mod:`repro.serve.jobs` — the job vocabulary: ``derive`` / ``check`` /
  ``execute`` specs, their store keys, and the worker-side executor;
- :mod:`repro.serve.pool` — a ``multiprocessing`` worker pool with
  per-job timeouts, bounded retries with backoff for crashed workers,
  cancellation of queued jobs, and in-flight deduplication (identical
  submissions coalesce to one execution; store hits never spawn a
  worker);
- :mod:`repro.serve.service` — the batch front end that turns finished
  jobs into a ``repro.serve/1`` report (per-job ``hit | computed |
  retried | timeout | failed`` status, wall time, worker id) and mirrors
  queue wait / pool utilization / store hit-miss into :mod:`repro.obs`;
- :mod:`repro.serve.cli` — ``python -m repro serve submit|batch|stats|gc``.

Quick use::

    from repro.serve import ArtifactStore, JobSpec, run_batch
    report = run_batch([JobSpec(kind="derive", workload="lu_nopivot")],
                       workers=2, store=ArtifactStore())
    report["jobs"][0]["status"]          # "computed" (then "hit" forever)

``python -m repro report --workers N`` routes its tables through the
same pool.
"""

from __future__ import annotations

from repro.serve.jobs import JobSpec, execute_job, job_key
from repro.serve.pool import JobOutcome, WorkerPool
from repro.serve.service import (
    SCHEMA,
    build_report,
    run_batch,
)
from repro.serve.store import SCHEMA_VERSION, ArtifactStore

__all__ = [
    "ArtifactStore",
    "JobOutcome",
    "JobSpec",
    "SCHEMA",
    "SCHEMA_VERSION",
    "WorkerPool",
    "build_report",
    "execute_job",
    "job_key",
    "run_batch",
]
