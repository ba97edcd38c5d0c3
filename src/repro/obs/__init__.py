"""Stack-wide tracing, metrics, and loop-level miss attribution (``repro.obs``).

Zero-dependency observability for the whole reproduction stack:

- :mod:`repro.obs.core` — counters, histograms, and hierarchical spans
  behind a context-var "active observer"; near-zero cost when disabled.
  The analysis engines (dependence, Fourier–Motzkin), the pass manager,
  the interpreter, and the cache-simulator glue all report into it.
  Serve workers observe their own jobs and ship the :class:`Obs` itself
  back through the result queues; the parent folds it in with
  :meth:`Obs.merge` (counters summed, histograms folded, spans aligned
  onto the parent clock and tagged with a per-worker lane).
- :mod:`repro.obs.attribution` — the per-loop / per-statement / per-array
  miss and dirty-eviction breakdowns, counted per static site of the
  address stream the cache simulator consumes.
- :mod:`repro.obs.export` — Chrome trace-event JSON (loadable in
  Perfetto; one pid lane per merged worker) and the ``repro.obs/1``
  metrics schema, with its declared shape.
- ``python -m repro obs`` — run any pipeline workload end to end
  (derivation + simulated execution) and render a text profile: top loops
  by misses, top passes by wall time, analysis-cache efficiency.

Quick use::

    from repro.obs import Obs, enabled, metrics
    with enabled() as o:
        ...run anything instrumented...
    doc = metrics(o)
"""

from __future__ import annotations

from repro.obs.core import (
    Histogram,
    Obs,
    SpanEvent,
    count,
    current,
    enabled,
    observe,
    span,
)
from repro.obs.attribution import MissAttribution, stmt_label
from repro.obs.export import (
    SCHEMA,
    chrome_trace,
    metrics,
    write_json,
)

__all__ = [
    "Histogram",
    "MissAttribution",
    "Obs",
    "SCHEMA",
    "SpanEvent",
    "chrome_trace",
    "count",
    "current",
    "enabled",
    "metrics",
    "observe",
    "span",
    "stmt_label",
    "write_json",
]
