"""Exporters for :mod:`repro.obs`: Chrome trace-event JSON and metrics.

Two artifact formats come out of an observed run:

- :func:`chrome_trace` — the Chrome trace-event format (complete ``"X"``
  events), loadable directly in Perfetto (https://ui.perfetto.dev → "Open
  trace file") or ``chrome://tracing``;
- :func:`metrics` — the ``repro.obs/1`` payload schema below, the
  machine-readable profile that BENCH artifacts and CI validate
  (written enveloped by :func:`repro.artifacts.publish`).

.. code-block:: text

    {
      'schema': 'repro.obs/1',
      'meta': {'workload': 'lu_nopivot', ...},        # free-form strings
      'counters': {'dependence.queries': 41, ...},
      'histograms': {'fm.feasible.latency_s': HISTOGRAM_SUMMARY, ...},
      'spans': {'pass:block': {'count', 'total_s', 'max_s'}, ...},
      'analysis_cache': {'dependence': {'hits','misses','entries',
                                        'hit_rate'}, ...},
      'machine': {'cache': CacheStats dict | null, 'tlb': ... | null},
      'attribution': {'rows': [{'loop','statement','array','accesses',
                                'misses','writebacks','tlb_misses',
                                'writes'}, ...],
                      'by_loop': {...}, 'by_statement': {...},
                      'by_array': {...}, 'totals': {...}} | null
    }

:data:`SHAPE` is the checked structure; :func:`invariants` holds the
load-bearing rule — the attribution views each sum exactly to the
attribution totals, and those totals match the machine-level
``CacheStats`` when both are present.  Schema *identity* (right name,
right version, digest) is the envelope layer's job:
:func:`repro.artifacts.validate.validate_document`.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.artifacts.flatten import (
    HISTOGRAM_SUMMARY,
    HIST_FIELDS,
    Sink,
    cache_stats,
)
from repro.artifacts.registry import OBS_METRICS as SCHEMA
from repro.artifacts.shape import map_of, nullable
from repro.obs.core import Obs

_ATTR_FIELDS = ("accesses", "misses", "writebacks", "tlb_misses", "writes")
_ATTR_VIEWS = ("by_loop", "by_statement", "by_array")
_ATTR_COUNTS = {field: int for field in _ATTR_FIELDS}


def chrome_trace(obs: Obs) -> dict:
    """Chrome trace-event JSON for the run's spans.

    Spans recorded in this process (``lane is None``) render as pid 1;
    spans merged from worker snapshots (:mod:`repro.obs.snapshot`) carry
    a lane name and each distinct lane gets its own pid, so a pool run
    shows one timeline row per worker process.  Nesting within a lane is
    positional, from timestamps.
    """
    lanes = sorted({s.lane for s in obs.spans if s.lane is not None})
    pid_of = {None: 1, **{lane: i + 2 for i, lane in enumerate(lanes)}}
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "repro"}},
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
         "args": {"name": "pipeline+simulator"}},
    ]
    for lane in lanes:
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid_of[lane], "tid": 1,
             "args": {"name": f"repro worker {lane}"}}
        )
    for s in sorted(obs.spans, key=lambda s: s.ts):
        events.append(
            {
                "name": s.name,
                "cat": s.cat or "repro",
                "ph": "X",
                "ts": round(s.ts * 1e6, 3),
                "dur": max(round(s.dur * 1e6, 3), 0.001),
                "pid": pid_of[s.lane],
                "tid": 1,
                "args": s.args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"schema": SCHEMA}}


def metrics(
    obs: Obs,
    meta: Optional[dict] = None,
    attribution=None,
    analysis_cache: Optional[dict] = None,
    machine_cache=None,
    machine_tlb=None,
) -> dict:
    """Build a ``repro.obs/1`` metrics document.

    ``attribution`` is a :class:`~repro.obs.attribution.MissAttribution`
    (or None); ``machine_cache``/``machine_tlb`` are
    :class:`~repro.machine.cache.CacheStats` (or None);
    ``analysis_cache`` is an :meth:`AnalysisCache.stats` dict.
    """
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "counters": dict(sorted(obs.counters.items())),
        "histograms": {
            name: h.summary() for name, h in sorted(obs.histograms.items())
        },
        "spans": obs.span_summary(),
        "analysis_cache": analysis_cache or {},
        "machine": {
            "cache": machine_cache.to_dict() if machine_cache is not None else None,
            "tlb": machine_tlb.to_dict() if machine_tlb is not None else None,
        },
        "attribution": attribution.to_dict() if attribution is not None else None,
    }


SHAPE = {
    "meta": dict,
    "counters": map_of(int),
    "histograms": map_of(HISTOGRAM_SUMMARY),
    "spans": map_of({"count": int, "total_s": float, "max_s": float}),
    "analysis_cache": dict,
    "machine": {"cache": nullable(dict), "tlb": nullable(dict)},
    "attribution": nullable({
        "rows": [_ATTR_COUNTS],
        **{view: map_of(_ATTR_COUNTS) for view in _ATTR_VIEWS},
        "totals": _ATTR_COUNTS,
    }),
}


def invariants(doc: dict) -> list[str]:
    """Every attribution view sums to the attribution totals, and the
    totals equal the machine-level ``CacheStats``."""
    attribution = doc.get("attribution")
    if attribution is None:
        return []
    errors = []
    totals = attribution["totals"]
    for field in _ATTR_FIELDS:
        want = totals[field]
        rows_sum = sum(r[field] for r in attribution["rows"])
        if rows_sum != want:
            errors.append(
                f"attribution rows sum {field}={rows_sum} != totals {want}"
            )
        for view in _ATTR_VIEWS:
            got = sum(row[field] for row in attribution[view].values())
            if got != want:
                errors.append(
                    f"attribution {view} sums {field}={got} != totals {want}"
                )
    mcache = doc["machine"].get("cache")
    if mcache is not None:
        for field in ("accesses", "misses", "writebacks"):
            if totals[field] != mcache.get(field):
                errors.append(
                    f"attribution {field} {totals[field]} != "
                    f"machine cache {field} {mcache.get(field)}"
                )
    return errors


def flatten_metrics(doc: dict) -> dict:
    """Flat perf metrics for a metrics payload — the registered perf
    ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    for name, value in sorted((doc.get("counters") or {}).items()):
        sink.put(f"counter:{name}", value)
    for name, h in sorted((doc.get("histograms") or {}).items()):
        sink.put_summary(f"hist:{name}", h, HIST_FIELDS)
    for name, s in sorted((doc.get("spans") or {}).items()):
        sink.put_summary(f"span:{name}", s, ("total_s", "count", "max_s"))
    cache_stats(sink, doc.get("analysis_cache"))
    machine = doc.get("machine") or {}
    for level in ("cache", "tlb"):
        stats = machine.get(level)
        if isinstance(stats, dict):
            for field, value in sorted(stats.items()):
                sink.put(f"machine.{level}.{field}", value)
    return sink.metrics


def write_json(path: str, doc: dict) -> None:
    """Plain JSON writer — Chrome traces and other non-artifact dumps."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
