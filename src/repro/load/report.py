"""The ``repro.serve.load/1`` payload: build, shape, invariants, flatten.

What each field means (the checked structure is :data:`SHAPE`):

.. code-block:: text

    {
      'schema': 'repro.serve.load/1',
      'endpoint': {'host': '127.0.0.1', 'port': 43117},
      'grid': {...the grid that ran, echoed...},
      'steps': [
        {'rate': 8.0, 'duration_s': 2.0,
         'offered': 16, 'sent': 16,
         'outcomes': {'hit': 9, 'computed': 4, 'shed': 3, ...},
         'latency': {'request_s': HISTOGRAM_SUMMARY,
                     'hit_s': ..., 'computed_s': ...},
         'throughput': 6.5},                 # resolved jobs / second
        ...
      ],
      'analysis': {
        'knee': {'step': 3, 'rate': 16.0,    # first step that shed
                 'shed': 3, 'accepted_p95_s': 0.21} | None,
        'max_clean_rate': 8.0,               # fastest shed-free step
        'warm_p50_s': 0.0012, 'cold_p50_s': 0.31,
        'warm_speedup': 258.3,               # cold_p50 / warm_p50
        'warm_count': 41, 'cold_count': 12
      },
      'elapsed_s': 11.7
    }

Outcome vocabulary per step: the six pool statuses
(hit/computed/retried/timeout/failed/cancelled) as resolved by the
daemon, plus the client-visible admission outcomes ``shed`` (HTTP 429),
``deadline`` (HTTP 504), ``draining`` (HTTP 503), and ``error``
(transport failure).  ``warm_p50_s``/``cold_p50_s`` merge the hit and
computed latency streams across *all* steps — the 10x warm-speedup
acceptance reads ``analysis.warm_speedup``.  :func:`flatten_report`
emits ``load:*`` perf metrics.  Absolute latencies are
machine-dependent: gate ratios and counts, record the rest for trend.
"""

from __future__ import annotations

from typing import Optional

from repro.artifacts.flatten import HISTOGRAM_SUMMARY, HIST_FIELDS, Sink
from repro.artifacts.registry import SERVE_LOAD as SCHEMA
from repro.artifacts.shape import map_of, nullable

#: every admission fate a client can observe, beyond the pool statuses
CLIENT_OUTCOMES = ("shed", "deadline", "draining", "error")

#: latency streams recorded per step (and merged for the analysis)
LATENCY_KEYS = ("request_s", "hit_s", "computed_s")


def build_report(
    endpoint: dict,
    grid: dict,
    steps: list[dict],
    analysis: dict,
    elapsed_s: float,
) -> dict:
    return {
        "schema": SCHEMA,
        "endpoint": endpoint,
        "grid": grid,
        "steps": steps,
        "analysis": analysis,
        "elapsed_s": round(elapsed_s, 4),
    }


SHAPE = {
    "endpoint": {"port": int},
    "grid": dict,
    "steps": [{
        "rate": float,
        "duration_s": float,
        "offered": int,
        "sent": int,
        "outcomes": map_of(int),
        "latency": {key: HISTOGRAM_SUMMARY for key in LATENCY_KEYS},
        "throughput": float,
    }],
    "analysis": {
        "knee": nullable({"rate": float, "shed": int}),
        "warm_count": int,
        "cold_count": int,
    },
    "elapsed_s": float,
}


def invariants(doc: dict) -> list[str]:
    """A load report describes at least one ramp step."""
    return [] if doc["steps"] else ["steps: empty"]


def flatten_report(doc: dict) -> dict:
    """Flat ``load:*`` perf metrics for a load report — the registered
    perf ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    steps = doc.get("steps") or []
    sink.put("load:steps", len(steps))
    sink.put("load:elapsed_s", doc.get("elapsed_s"))
    totals: dict[str, float] = {}
    offered = 0
    for step in steps:
        if not isinstance(step, dict):
            continue
        offered += step.get("offered") or 0
        for outcome, count in (step.get("outcomes") or {}).items():
            totals[outcome] = totals.get(outcome, 0) + count
    sink.put("load:offered", offered)
    for outcome, count in sorted(totals.items()):
        sink.put(f"load:outcomes.{outcome}", count)
    analysis = doc.get("analysis") or {}
    for key in ("warm_p50_s", "cold_p50_s", "warm_speedup",
                "max_clean_rate", "warm_count", "cold_count"):
        sink.put(f"load:analysis.{key}", analysis.get(key))
    knee = analysis.get("knee")
    sink.put("load:analysis.knee_found", 1 if knee else 0)
    if isinstance(knee, dict):
        sink.put("load:analysis.knee_rate", knee.get("rate"))
        sink.put("load:analysis.knee_shed", knee.get("shed"))
        sink.put("load:analysis.knee_accepted_p95_s",
                 knee.get("accepted_p95_s"))
    if steps and isinstance(steps[-1], dict):
        last = steps[-1]
        sink.put("load:last_step.rate", last.get("rate"))
        sink.put("load:last_step.throughput", last.get("throughput"))
        latency = (last.get("latency") or {}).get("request_s")
        if isinstance(latency, dict):
            sink.put_summary("load:last_step.request_s", latency,
                             HIST_FIELDS)
    return sink.metrics


def analyze(steps: list[dict], warm, cold) -> dict:
    """The knee/speedup analysis block from per-step rows plus the
    merged hit (``warm``) and computed (``cold``) latency histograms."""
    knee: Optional[dict] = None
    max_clean = 0.0
    for i, step in enumerate(steps):
        shed = (step.get("outcomes") or {}).get("shed", 0)
        if shed and knee is None:
            knee = {
                "step": i,
                "rate": step["rate"],
                "shed": shed,
                "accepted_p95_s": step["latency"]["request_s"].get("p95"),
            }
        elif not shed:
            max_clean = max(max_clean, float(step["rate"]))
    warm_sum = warm.summary()
    cold_sum = cold.summary()
    warm_p50 = warm_sum.get("p50")
    cold_p50 = cold_sum.get("p50")
    speedup = (
        round(cold_p50 / warm_p50, 2)
        if warm_sum["count"] and cold_sum["count"] and warm_p50
        else None
    )
    return {
        "knee": knee,
        "max_clean_rate": max_clean,
        "warm_p50_s": warm_p50,
        "cold_p50_s": cold_p50,
        "warm_speedup": speedup,
        "warm_count": warm_sum["count"],
        "cold_count": cold_sum["count"],
    }
