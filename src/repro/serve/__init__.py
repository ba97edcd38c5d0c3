"""Concurrent compile-and-run service over a persistent store (``repro.serve``).

The rest of the stack derives, checks, and benchmarks one procedure at a
time, in process, and every :class:`~repro.pipeline.cache.AnalysisCache`
win dies with the interpreter.  This subsystem turns those derivations
into *jobs* served concurrently and cached durably:

- :mod:`repro.serve.store` — an on-disk content-addressed artifact store
  under ``.repro-cache/``, keyed by (input IR fingerprint, pass recipe,
  context facts, schema version), with atomic write-via-rename and
  checksum-verified reads (a truncated or corrupted entry is a miss,
  never a crash), plus the ``repro.serve.store/1`` maintenance record
  ``stats`` / ``gc`` emit;
- :mod:`repro.serve.jobs` — the job vocabulary: ``derive`` / ``check`` /
  ``execute`` specs, their store keys, and the worker-side executor;
- :mod:`repro.serve.pool` — a ``multiprocessing`` worker pool with
  per-job timeouts, bounded retries with backoff for crashed workers,
  cancellation of queued jobs, and in-flight deduplication (identical
  submissions coalesce to one execution; store hits never spawn a
  worker); :meth:`JobOutcome.to_dict` is the one rendering of a resolved
  job — the row (status, wall time, worker id, result) both front ends
  answer with — and queue wait, wall time, status counts and store
  hit/miss mirror into :mod:`repro.obs`;
- :mod:`repro.serve.cli` — ``python -m repro serve submit|batch|stats|gc``,
  the batch front end (the resident one is :mod:`repro.daemon`).

Quick use::

    from repro.serve import ArtifactStore, JobSpec, WorkerPool
    with WorkerPool(workers=2, store=ArtifactStore()) as pool:
        (outcome,) = pool.run([JobSpec(kind="derive", workload="lu_nopivot")])
    outcome.to_dict()["status"]          # "computed" (then "hit" forever)

``python -m repro report --workers N`` routes its tables through the
same pool.
"""

from __future__ import annotations

from repro.serve.jobs import JobSpec, execute_job, job_key
from repro.serve.pool import JobOutcome, WorkerPool
from repro.serve.store import SCHEMA_VERSION, ArtifactStore

__all__ = [
    "ArtifactStore",
    "JobOutcome",
    "JobSpec",
    "SCHEMA_VERSION",
    "WorkerPool",
    "execute_job",
    "job_key",
]
