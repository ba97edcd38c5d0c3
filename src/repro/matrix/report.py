"""The ``repro.matrix/1`` artifact: build, shape, invariants, render.

.. code-block:: text

    {
      'schema': 'repro.matrix/1',
      'meta': {'tool': '...', ...},            # free-form strings
      'grid': {'factors': {...}, 'cells': 24,
               'digest': '9f31...'} | null,     # null: rows of no one grid
      'run': {'workers': 2, 'hit': 0, 'computed': 24, 'retried': 0,
              'timeout': 0, 'failed': 0, 'cancelled': 0,
              'total': 24, 'elapsed_s': 12.3} | null,   # null: report-only
      'rows': [ {digest, workload, recipe, n, b, cache_kb, ..., status,
                 error, attempts, wall_s, refs, misses, miss_ratio,
                 modeled_s, base_*, speedup, fingerprint}, ... ],
      'summary': {'cells', 'ok', 'failed', 'speedup': {quantiles},
                  'miss_ratio': {quantiles}, 'by_workload': {...}},
      'sensitivity': {'b': {'metric', 'levels', 'best_level',
                            'comparisons', 'mean_effect', 'max_effect'}, ...},
      'best_blocking': [{'workload', 'best_b', 'best_mean', 'per_b'}, ...]
    }

:data:`SHAPE` is the checked structure and :func:`invariants` the
cross-field rules; the ``matrix-smoke`` CI job validates a real sweep,
and publishing validates before writing.  Reports are written enveloped
(see :mod:`repro.artifacts`).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.artifacts.flatten import QUANT_FIELDS, Sink
from repro.artifacts.registry import MATRIX_REPORT as SCHEMA
from repro.artifacts.shape import enum, map_of, nullable
from repro.matrix.analysis import best_blocking, sensitivity, summarize
from repro.matrix.grid import FACTOR_ORDER
from repro.serve.pool import OK_STATUSES, STATUSES


def build_report(
    rows: Sequence[Mapping],
    grid: Optional[Mapping] = None,
    run: Optional[Mapping] = None,
    meta: Optional[Mapping] = None,
    metric: str = "speedup",
    only: Optional[Sequence[str]] = None,
) -> dict:
    """Assemble the artifact from result rows (+ the grid/run blocks).

    ``only`` restricts the sensitivity section to the named factors
    (:class:`~repro.errors.MatrixError` when one is absent or constant).
    """
    rows = [dict(r) for r in rows]
    factors = None if only is None else list(only)
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "grid": dict(grid) if grid is not None else None,
        "run": dict(run) if run is not None else None,
        "rows": rows,
        "summary": summarize(rows),
        "sensitivity": sensitivity(rows, metric=metric, factors=factors),
        "best_blocking": best_blocking(rows, metric=metric),
    }


SHAPE = {
    "meta": dict,
    "grid": nullable({"factors": dict}),
    "run": nullable({**{key: nullable(int) for key in STATUSES},
                     "total": int}),
    "rows": [{
        "digest": str,
        "workload": str,
        "recipe": str,
        "status": enum(*STATUSES),
        "speedup": nullable(float),
        "error": nullable(str),
    }],
    "summary": {"cells": int, "ok": int},
    "sensitivity": map_of({"levels": dict}),
    "best_blocking": list,
}


def invariants(doc: dict) -> list[str]:
    """An ok row has a speedup and any other row an error; ``summary``
    recounts ``rows``; sensitivity is over real factors with at least two
    levels; ``run.total`` adds up."""
    errors = []
    rows, summary, run = doc["rows"], doc["summary"], doc.get("run")
    for i, row in enumerate(rows):
        if row["status"] in OK_STATUSES:
            if row.get("speedup") is None:
                errors.append(f"rows[{i}] is {row['status']} but has no speedup")
        elif not row.get("error"):
            errors.append(f"rows[{i}] is {row['status']} but carries no error")
    if summary["cells"] != len(rows):
        errors.append(f"summary.cells is {summary['cells']}, want {len(rows)}")
    ok = sum(1 for row in rows if row["status"] in OK_STATUSES)
    if summary["ok"] != ok:
        errors.append(f"summary.ok is {summary['ok']}, want {ok}")
    for factor, entry in doc["sensitivity"].items():
        if factor not in FACTOR_ORDER:
            errors.append(f"sensitivity names unknown factor {factor!r}")
        elif len(entry["levels"]) < 2:
            errors.append(f"sensitivity.{factor} has fewer than 2 levels")
    if run is not None:
        want = sum(run.get(key) or 0 for key in STATUSES)
        if run["total"] != want:
            errors.append(
                f"run.total is {run['total']}, want {want} "
                "(the per-status counts)"
            )
    return errors


def render(doc: dict) -> str:
    """Human-readable report: summary, sensitivity, best blocking."""
    from repro.bench.harness import render_rows

    out = []
    s = doc["summary"]
    run = doc.get("run")
    if doc.get("grid"):
        out.append(
            f"grid {doc['grid']['digest'][:12]}: {doc['grid']['cells']} cell(s)"
        )
    if run is not None:
        parts = [f"{run[k]} {k}" for k in STATUSES if run.get(k)]
        out.append(
            f"run: {', '.join(parts) or 'nothing to do'} "
            f"in {run.get('elapsed_s', 0):.2f}s on {run.get('workers', '?')} worker(s)"
        )
    sp = s.get("speedup")
    if sp:
        out.append(
            f"{s['ok']}/{s['cells']} cell(s) ok; speedup min {sp['min']:.3g} / "
            f"median {sp['p50']:.3g} / max {sp['max']:.3g}"
        )
    else:
        out.append(f"{s['ok']}/{s['cells']} cell(s) ok")
    for factor, entry in doc.get("sensitivity", {}).items():
        out.append(f"\n== sensitivity: {factor} (metric: {entry['metric']})")
        rows = [
            {
                "level": lv,
                "mean": stats["mean"],
                "cells": stats["cells"],
                "best": "*" if lv == entry["best_level"] else "",
            }
            for lv, stats in entry["levels"].items()
        ]
        out.append(render_rows(rows, ("level", "mean", "cells", "best")))
        effect = entry.get("mean_effect")
        out.append(
            f"   {entry['comparisons']} controlled comparison(s), "
            f"mean effect {effect:.3g}" if effect is not None
            else f"   {entry['comparisons']} controlled comparison(s)"
        )
    bb = doc.get("best_blocking") or []
    if bb:
        out.append("\n== best blocking factor per workload")
        rows = [
            {
                "workload": e["workload"],
                "best b": e["best_b"],
                "mean": e["best_mean"],
                "cells": e["cells"],
            }
            for e in bb
        ]
        out.append(render_rows(rows, ("workload", "best b", "mean", "cells")))
    return "\n".join(out)


def flatten_report(doc: dict) -> dict:
    """Flat perf metrics for a matrix-report payload — the registered
    perf ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    run = doc.get("run") or {}
    for field in ("elapsed_s", "total", "hit", "computed", "failed"):
        sink.put(f"run.{field}", run.get(field))
    summary = doc.get("summary") or {}
    for field in ("cells", "ok", "failed"):
        sink.put(f"summary.{field}", summary.get(field))
    for metric in ("speedup", "miss_ratio"):
        sink.put_summary(f"summary.{metric}", summary.get(metric), QUANT_FIELDS)
    for row in doc.get("rows") or []:
        if not isinstance(row, dict):
            continue
        label = (
            f"cell:{row.get('workload', '?')}:{row.get('recipe', '?')}"
            f":n{row.get('n')}:b{row.get('b')}"
        )
        for field in ("modeled_s", "speedup", "miss_ratio", "wall_s"):
            sink.put(f"{label}.{field}", row.get(field))
    return sink.metrics
