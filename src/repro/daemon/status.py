"""The ``repro.daemon.status/1`` payload: shape, invariants, flatten.

What each field means (the checked structure is :data:`SHAPE`):

.. code-block:: text

    {
      'state': 'running' | 'draining',
      'pid': 1234,
      'endpoint': {'host': '127.0.0.1', 'port': 43117},
      'started_s': 1754650000.1,          # epoch seconds
      'uptime_s': 17.3,
      'config': {'workers', 'queue_limit', 'deadline_s'},
      'requests': {
        'received': 12,                    # everything that reached admission
        'accepted': 9,                     # entered the queue (or memory hit)
        'shed': 2,                         # bounced with daemon/saturated
        'rejected': 1,                     # bad request / draining
        'deadline': 0,                     # waited past their deadline
        'memory_hits': 3,                  # answered from the hot cache
        'completed': {'hit': 2, 'computed': 4, ...}   # per pool status
      },
      'queue': {'outstanding': 1, 'limit': 16},
      'mem_cache': {'entries': 4, 'capacity': 1024, 'hits': 3},
      'pool': {...WorkerPool.stats()...},
      'store': {...ArtifactStore.stats()...},
      'latency': {'request_s': HISTOGRAM_SUMMARY,
                  'hit_s': ..., 'computed_s': ...}
    }

``requests.completed`` counts resolved pool outcomes by the pool's
status vocabulary (:data:`repro.serve.pool.STATUSES`); ``memory_hits`` are answered
before the scheduler ever sees them, so they appear under
``requests.memory_hits`` (and in ``latency.hit_s``) but not under
``completed``.  :func:`flatten_status` emits ``daemon:*`` perf
metrics.  Latency quantiles are machine-dependent — record them for
trend, never gate them at threshold 0.
"""

from __future__ import annotations

from repro.artifacts.flatten import HISTOGRAM_SUMMARY, HIST_FIELDS, Sink
from repro.artifacts.registry import DAEMON_STATUS as SCHEMA
from repro.artifacts.shape import enum, map_of
from repro.serve.pool import STATUSES

STATES = ("running", "draining")

#: request counters every status payload carries
REQUEST_FIELDS = (
    "received", "accepted", "shed", "rejected", "deadline", "memory_hits",
)

#: latency streams the daemon tracks per request
LATENCY_KEYS = ("request_s", "hit_s", "computed_s")


SHAPE = {
    "state": enum(*STATES),
    "pid": int,
    "endpoint": {"port": int},
    "started_s": float,
    "uptime_s": float,
    "config": dict,
    "requests": {**{key: int for key in REQUEST_FIELDS},
                 "completed": map_of(int)},
    "queue": {"outstanding": int, "limit": int},
    "mem_cache": dict,
    "pool": dict,
    "store": dict,
    "latency": {key: HISTOGRAM_SUMMARY for key in LATENCY_KEYS},
}


def invariants(doc: dict) -> list[str]:
    """``requests.completed`` speaks the pool's status vocabulary."""
    unknown = set(doc["requests"]["completed"]) - set(STATUSES)
    if unknown:
        return [f"requests.completed has unknown status(es) {sorted(unknown)}"]
    return []


def flatten_status(doc: dict) -> dict:
    """Flat perf metrics for a daemon-status payload — the registered
    perf ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    sink.put("daemon:uptime_s", doc.get("uptime_s"))
    requests = doc.get("requests") or {}
    for key in REQUEST_FIELDS:
        sink.put(f"daemon:requests.{key}", requests.get(key))
    for status, count in sorted((requests.get("completed") or {}).items()):
        sink.put(f"daemon:completed.{status}", count)
    queue = doc.get("queue") or {}
    sink.put("daemon:queue.outstanding", queue.get("outstanding"))
    mem = doc.get("mem_cache") or {}
    for key in ("entries", "hits"):
        sink.put(f"daemon:mem_cache.{key}", mem.get(key))
    pool = doc.get("pool") or {}
    for key in ("busy_s", "respawns", "coalesced"):
        sink.put(f"daemon:pool.{key}", pool.get(key))
    store = doc.get("store") or {}
    for key in ("hits", "misses", "writes", "entries"):
        sink.put(f"daemon:store.{key}", store.get(key))
    for key, h in sorted((doc.get("latency") or {}).items()):
        sink.put_summary(f"daemon:latency.{key}", h, HIST_FIELDS)
    return sink.metrics
