"""Structured JSON traces of pipeline runs.

Payload schema (version 1; written enveloped — see
:mod:`repro.artifacts`) — the README documents this too:

.. code-block:: text

    {
      'schema': 'repro.pipeline/1',
      'algorithm': 'lu_nopivot',          # workload name ('' for ad hoc)
      'procedure': 'lu_point',            # input Procedure.name
      'passes': ['split', 'block', 'jam'],
      'spans': [
        {
          'index': 0,
          'pass': 'block',
          'status': 'applied',            # applied|noop|infeasible|error|
                                          # check-failed
          'wall_s': 1.32,
          'cached': false,
          'input_fingerprint': 'ba77...', # sha256 of the input IR
          'output_fingerprint': '19c2...',
          'ir_size_before': 50,
          'ir_size_after': 154,
          'detail': {...},                # pass-specific, JSON only
          'verify': {...} | null,         # differential-check summary
          'error': null | 'message',
          'snapshot': null | 'DO K = ...' # pretty IR when requested
        }, ...
      ],
      'cache': {'dependence': {'hits': n, 'misses': m, ...}, ...},
      'verify_enabled': true,
      'elapsed_s': 1.35
    }

One span per pass *attempted* — infeasible and errored passes get spans
too, because "the compiler refuses here" is a result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence

from repro.artifacts.flatten import Sink, cache_stats
from repro.artifacts.registry import PIPELINE_TRACE as SCHEMA
from repro.artifacts.shape import enum

if TYPE_CHECKING:  # pragma: no cover
    from repro.pipeline.manager import SpanRecord

#: the span a ``--check`` run stopped at: an error-severity finding, which
#: the span embeds under ``detail.check``
CHECK_FAILED = "check-failed"

_STATUSES = ("applied", "noop", "infeasible", "error", CHECK_FAILED)


def span_to_dict(span: "SpanRecord") -> dict:
    return {
        "index": span.index,
        "pass": span.name,
        "status": span.status,
        "wall_s": span.wall_s,
        "cached": span.cached,
        "input_fingerprint": span.input_fingerprint,
        "output_fingerprint": span.output_fingerprint,
        "ir_size_before": span.ir_size_before,
        "ir_size_after": span.ir_size_after,
        "detail": span.detail,
        "verify": span.verify,
        "error": span.error,
        "snapshot": span.snapshot,
    }


def build_trace(
    spans: Sequence["SpanRecord"],
    algorithm: str = "",
    procedure: str = "",
    cache_stats: Optional[dict] = None,
    verify_enabled: bool = False,
    elapsed_s: float = 0.0,
) -> dict:
    return {
        "schema": SCHEMA,
        "algorithm": algorithm,
        "procedure": procedure,
        "passes": [s.name for s in spans],
        "spans": [span_to_dict(s) for s in spans],
        "cache": cache_stats or {},
        "verify_enabled": verify_enabled,
        "elapsed_s": elapsed_s,
    }


SHAPE = {
    "passes": [str],
    "spans": [{"pass": str, "status": enum(*_STATUSES)}],
    "cache": dict,
}


def invariants(trace: dict) -> list[str]:
    """One span per pass attempted."""
    passes, spans = len(trace["passes"]), len(trace["spans"])
    if passes != spans:
        return [f"passes lists {passes} names but there are {spans} spans"]
    return []


def flatten_trace(trace: dict) -> dict:
    """Flat perf metrics for a trace payload — the registered perf
    ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    sink.put("elapsed_s", trace.get("elapsed_s"))
    spans = trace.get("spans")
    if not isinstance(spans, list):
        spans = []
    else:
        sink.put("passes.count", len(spans))
    for span in spans:
        if not isinstance(span, dict):
            continue
        name = span.get("pass", "?")
        sink.put(f"pass:{name}.wall_s", span.get("wall_s"))
        sink.put(f"pass:{name}.ir_size_after", span.get("ir_size_after"))
        before, after = span.get("ir_size_before"), span.get("ir_size_after")
        if isinstance(before, (int, float)) and isinstance(after, (int, float)):
            sink.put(f"pass:{name}.ir_growth", after - before)
    cache_stats(sink, trace.get("cache"))
    return sink.metrics
