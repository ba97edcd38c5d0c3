"""Shared helpers for the per-kind ``flatten`` hooks.

The perf timeline stores flat numeric metrics with stable names; each
artifact kind registers a ``flatten(payload) -> {name: float}`` hook
next to its shape (:mod:`repro.artifacts.kinds`).  The hooks live
with their subsystems; what they share lives here:

- :class:`Sink` — collects metrics, skips junk (bools, non-finites,
  non-numbers), and de-duplicates repeated names with ``#2``/``#3``
  suffixes in encounter order so reruns flatten to the same names;
- :func:`cache_stats` — the analysis-cache block several payloads carry;
- :data:`HIST_FIELDS` / :data:`QUANT_FIELDS` — the summary fields worth
  a timeline;
- :data:`HISTOGRAM_SUMMARY` — the shape of the histogram summaries those
  fields are read from.
"""

from __future__ import annotations

import math

#: histogram summary fields worth tracking over time
HIST_FIELDS = ("mean", "p50", "p95", "p99", "max", "count", "total")

#: shape (:mod:`repro.artifacts.shape`) of ``obs.core.Histogram.summary()``,
#: the block every latency/histogram section of every payload carries
HISTOGRAM_SUMMARY = {
    "count": int, "total": float, "min": float, "max": float,
    "mean": float, "p50": float, "p95": float, "p99": float,
}

#: quantile-summary fields (matrix speedup/miss-ratio blocks)
QUANT_FIELDS = ("p25", "p50", "p75", "mean", "min", "max")


class Sink:
    """Collects metrics, skipping junk and de-duplicating names."""

    def __init__(self) -> None:
        self.metrics: dict = {}
        self._seen: dict = {}

    def put(self, name: str, value) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        if not math.isfinite(value):
            return
        n = self._seen.get(name, 0) + 1
        self._seen[name] = n
        if n > 1:
            name = f"{name}#{n}"
        self.metrics[name] = float(value)

    def put_summary(self, prefix: str, summary, fields) -> None:
        if not isinstance(summary, dict):
            return
        for field in fields:
            if field in summary:
                self.put(f"{prefix}.{field}", summary[field])


def cache_stats(sink: Sink, cache) -> None:
    """Fold an ``AnalysisCache.stats()`` block into ``sink``."""
    if not isinstance(cache, dict):
        return
    for region, stats in sorted(cache.items()):
        if not isinstance(stats, dict):
            continue
        for field in ("hits", "misses", "hit_rate"):
            if field in stats:
                sink.put(f"analysis_cache.{region}.{field}", stats[field])
