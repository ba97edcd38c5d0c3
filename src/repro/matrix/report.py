"""The ``repro.matrix/1`` artifact: build, validate, render.

.. code-block:: text

    {
      'schema': 'repro.matrix/1',
      'meta': {'tool': '...', ...},            # free-form strings
      'grid': {'factors': {...}, 'cells': 24,
               'digest': '9f31...'} | null,     # null: report over all rows
      'run': {'workers': 2, 'skipped': 0, 'hit': 0, 'computed': 24,
              'retried': 0, 'timeout': 0, 'failed': 0, 'cancelled': 0,
              'total': 24, 'elapsed_s': 12.3} | null,   # null: report-only
      'rows': [ {digest, workload, recipe, n, b, cache_kb, ..., status,
                 refs, misses, miss_ratio, modeled_s, base_*, speedup,
                 fingerprint, ...}, ... ],
      'summary': {'cells', 'ok', 'failed', 'speedup': {quantiles},
                  'miss_ratio': {quantiles}, 'by_workload': {...}},
      'sensitivity': {'b': {'metric', 'levels', 'best_level',
                            'comparisons', 'mean_effect', 'max_effect'}, ...},
      'best_blocking': [{'workload', 'best_b', 'best_mean', 'per_b'}, ...]
    }

``validate_report`` returns a list of problems (empty = valid) — the
idiom shared with ``repro.obs``/``repro.check``/``repro.serve``; the
``matrix-smoke`` CI job runs it over a real sweep, and publishing validates
before writing.  Reports are written enveloped (see
:mod:`repro.artifacts`).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from repro.artifacts.flatten import QUANT_FIELDS, Sink
from repro.artifacts.registry import MATRIX_REPORT as SCHEMA
from repro.matrix.analysis import (
    FACTOR_COLUMNS,
    OK_STATUSES,
    best_blocking,
    sensitivity,
    summarize,
    varied_factors,
)

#: every terminal status a row may carry (pool statuses)
ROW_STATUSES = ("hit", "computed", "retried", "timeout", "failed", "cancelled")

_RUN_COUNTS = ("skipped",) + ROW_STATUSES


def build_report(
    rows: Sequence[Mapping],
    grid=None,
    run: Optional[Mapping] = None,
    meta: Optional[Mapping] = None,
    metric: str = "speedup",
    only: Optional[Sequence[str]] = None,
) -> dict:
    """Assemble the artifact from result rows (+ optional grid/run info).

    ``only`` restricts the sensitivity section to the named factors
    (:class:`~repro.errors.MatrixError` when one is absent or constant).
    """
    rows = [dict(r) for r in rows]
    factors = None if only is None else list(only)
    return {
        "schema": SCHEMA,
        "meta": {k: str(v) for k, v in (meta or {}).items()},
        "grid": (
            {
                "factors": grid.factor_map(),
                "cells": grid.n_cells(),
                "digest": grid.digest(),
            }
            if grid is not None
            else None
        ),
        "run": dict(run) if run is not None else None,
        "rows": rows,
        "summary": summarize(rows),
        "sensitivity": sensitivity(rows, metric=metric, factors=factors),
        "best_blocking": best_blocking(rows, metric=metric),
    }


def validate_report(doc: dict) -> list[str]:
    """Problems with a matrix-report payload (empty = valid) — the
    registered payload check for :data:`SCHEMA`."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if not isinstance(doc.get("meta"), dict):
        errors.append("missing or non-object field 'meta'")
    if not isinstance(doc.get("rows"), list):
        errors.append("missing or non-list field 'rows'")
        return errors
    for i, row in enumerate(doc["rows"]):
        if not isinstance(row, dict):
            errors.append(f"rows[{i}] is not an object")
            continue
        for field in ("digest", "workload", "recipe", "status"):
            if not row.get(field):
                errors.append(f"rows[{i}] missing field {field!r}")
        if row.get("status") not in ROW_STATUSES:
            errors.append(f"rows[{i}] has unknown status {row.get('status')!r}")
        elif row["status"] in OK_STATUSES and row.get("speedup") is None:
            errors.append(f"rows[{i}] is {row['status']} but has no speedup")
        elif row["status"] not in OK_STATUSES and not row.get("error"):
            errors.append(f"rows[{i}] is {row['status']} but carries no error")
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        errors.append("missing or non-object field 'summary'")
    else:
        if summary.get("cells") != len(doc["rows"]):
            errors.append(
                f"summary.cells is {summary.get('cells')!r}, want {len(doc['rows'])}"
            )
        ok = sum(1 for r in doc["rows"] if r.get("status") in OK_STATUSES)
        if summary.get("ok") != ok:
            errors.append(f"summary.ok is {summary.get('ok')!r}, want {ok}")
    sens = doc.get("sensitivity")
    if not isinstance(sens, dict):
        errors.append("missing or non-object field 'sensitivity'")
    else:
        for f, entry in sens.items():
            if f not in FACTOR_COLUMNS:
                errors.append(f"sensitivity names unknown factor {f!r}")
                continue
            if not isinstance(entry, dict) or not isinstance(
                entry.get("levels"), dict
            ):
                errors.append(f"sensitivity[{f!r}] malformed")
                continue
            if len(entry["levels"]) < 2:
                errors.append(f"sensitivity[{f!r}] has fewer than 2 levels")
    if not isinstance(doc.get("best_blocking"), list):
        errors.append("missing or non-list field 'best_blocking'")
    grid = doc.get("grid")
    if grid is not None:
        if not isinstance(grid, dict) or not isinstance(grid.get("factors"), dict):
            errors.append("field 'grid' must be null or carry a factors object")
    run = doc.get("run")
    if run is not None:
        if not isinstance(run, dict):
            errors.append("field 'run' must be null or an object")
        else:
            want = sum(run.get(k, 0) for k in _RUN_COUNTS)
            if run.get("total") != want:
                errors.append(
                    f"run.total is {run.get('total')!r}, want {want} "
                    "(skipped + per-status counts)"
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
        parts = [f"{run[k]} {k}" for k in _RUN_COUNTS if run.get(k)]
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
    for field in ("elapsed_s", "total", "skipped", "hit", "computed", "failed"):
        sink.put(f"run.{field}", run.get(field))
    summary = doc.get("summary") or {}
    for field in ("cells", "ok", "failed"):
        sink.put(f"summary.{field}", summary.get(field))
    for metric in ("speedup", "miss_ratio"):
        sink.put_summary(f"summary.{metric}", summary.get(metric), QUANT_FIELDS)
    for row in doc.get("rows") or []:
        if not isinstance(row, dict) or row.get("status") == "skipped":
            continue
        label = (
            f"cell:{row.get('workload', '?')}:{row.get('recipe', '?')}"
            f":n{row.get('n')}:b{row.get('b')}"
        )
        for field in ("modeled_s", "speedup", "miss_ratio", "wall_s"):
            sink.put(f"{label}.{field}", row.get(field))
    return sink.metrics
