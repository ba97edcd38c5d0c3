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
      'histograms': {'fm.feasible.latency_s':
                     {'count', 'total', 'min', 'max', 'mean',
                      'p50', 'p95', 'p99'}, ...},
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

:func:`validate_metrics` checks a payload against that shape and — the
load-bearing invariant — that the attribution views each sum exactly to
the attribution totals, and that those totals match the machine-level
``CacheStats`` when both are present.  Schema *identity* (right name,
right version, digest) is the envelope layer's job:
:func:`repro.artifacts.validate.validate_document`.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.artifacts.flatten import HIST_FIELDS, Sink, cache_stats
from repro.artifacts.registry import OBS_METRICS as SCHEMA
from repro.obs.core import Obs

_ATTR_FIELDS = ("accesses", "misses", "writebacks", "tlb_misses", "writes")


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


def _sum_view(view: dict, field: str) -> int:
    return sum(row[field] for row in view.values())


def validate_metrics(doc: dict) -> list[str]:
    """Validate a metrics payload; returns a list of problems (empty =
    valid) — the registered payload check for :data:`SCHEMA`."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    for key in ("meta", "counters", "histograms", "spans", "analysis_cache", "machine"):
        if not isinstance(doc.get(key), dict):
            errors.append(f"missing or non-object field {key!r}")
    if errors:
        return errors

    for name, v in doc["counters"].items():
        if not isinstance(v, int):
            errors.append(f"counter {name!r} is not an integer")
    for name, h in doc["histograms"].items():
        missing = {"count", "total", "min", "max", "mean",
                   "p50", "p95", "p99"} - set(h)
        if missing:
            errors.append(f"histogram {name!r} missing {sorted(missing)}")
    for name, s in doc["spans"].items():
        missing = {"count", "total_s", "max_s"} - set(s)
        if missing:
            errors.append(f"span summary {name!r} missing {sorted(missing)}")

    attribution = doc.get("attribution")
    if attribution is not None:
        for key in ("rows", "by_loop", "by_statement", "by_array", "totals"):
            if key not in attribution:
                errors.append(f"attribution missing {key!r}")
        if errors:
            return errors
        totals = attribution["totals"]
        for field in _ATTR_FIELDS:
            want = totals.get(field)
            rows_sum = sum(r[field] for r in attribution["rows"])
            if rows_sum != want:
                errors.append(
                    f"attribution rows sum {field}={rows_sum} != totals {want}"
                )
            for view in ("by_loop", "by_statement", "by_array"):
                got = _sum_view(attribution[view], field)
                if got != want:
                    errors.append(
                        f"attribution {view} sums {field}={got} != totals {want}"
                    )
        # the acceptance invariant: attribution == machine CacheStats
        mcache = doc["machine"].get("cache")
        if mcache is not None:
            if totals.get("accesses") != mcache.get("accesses"):
                errors.append(
                    f"attribution accesses {totals.get('accesses')} != "
                    f"machine cache accesses {mcache.get('accesses')}"
                )
            if totals.get("misses") != mcache.get("misses"):
                errors.append(
                    f"attribution misses {totals.get('misses')} != "
                    f"machine cache misses {mcache.get('misses')}"
                )
            if totals.get("writebacks") != mcache.get("writebacks"):
                errors.append(
                    f"attribution writebacks {totals.get('writebacks')} != "
                    f"machine cache writebacks {mcache.get('writebacks')}"
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
