"""Sweep driver: expand a grid, run it through the worker pool, assemble
the ``repro.matrix/1`` report.

A sweep is store-backed jobs in, one artifact out — its memory is the
artifact store, like every other command's.  A cell whose artifact is
already there resolves at submit as a ``hit`` (``attempts=0``, no
worker); any other cell is computed, and its worker publishes the value
to the store *before* the parent hears of it, so a sweep killed mid-grid
keeps every finished cell and the rerun recomputes only the rest.  Under
``store=None`` nothing is remembered and a rerun recomputes.

Cells that resolve to the same digest (e.g. ``recipe=default`` next to
an explicit pass list naming the same pipeline) are one row — the grid
is a set of computations, not a set of labels.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional

from repro.matrix.cell import RESULT_FIELDS
from repro.matrix.grid import FACTOR_ORDER, GridSpec, cell_spec
from repro.matrix.report import build_report
from repro.obs import core as _obs
from repro.serve.pool import STATUSES, WorkerPool
from repro.serve.store import ArtifactStore


def run_grid(
    spec: GridSpec,
    workers: int = 2,
    store: Optional[ArtifactStore] = None,
    max_retries: int = 2,
    timeout_s: float = 600.0,
    meta: Optional[Mapping] = None,
    metric: str = "speedup",
    only=None,
    on_row: Optional[Callable[[dict], None]] = None,
) -> dict:
    """Run every cell of ``spec`` and return the ``repro.matrix/1`` doc.

    ``on_row`` is called with each row as its cell resolves (store hits
    included) — the CLI uses it for progress, tests use it to interrupt
    a sweep deterministically mid-grid.
    """
    t0 = time.perf_counter()
    counts = {s: 0 for s in STATUSES}
    rows = []
    with _obs.span("matrix.sweep", cat="matrix", cells=spec.n_cells()):
        with WorkerPool(
            workers=workers, store=store, max_retries=max_retries
        ) as pool:
            cells: dict = {}  # digest -> the first cell expanding to it
            handles = []
            for cell in spec.cells():
                handle = pool.submit(cell_spec(cell, timeout_s=timeout_s))
                if handle.outcome.digest not in cells:
                    cells[handle.outcome.digest] = cell
                    handles.append(handle)
            for handle in pool.as_resolved(handles):
                row = _row(cells[handle.outcome.digest], handle.outcome)
                rows.append(row)
                counts[row["status"]] += 1
                _obs.count(f"matrix.cell.{row['status']}")
                if on_row is not None:
                    on_row(row)
    rows.sort(key=lambda r: tuple((r[f] is None, r[f]) for f in FACTOR_ORDER))
    run = {
        "workers": workers,
        "total": len(rows),
        **counts,
        "elapsed_s": round(time.perf_counter() - t0, 4),
    }
    grid = {
        "factors": spec.factor_map(),
        "cells": spec.n_cells(),
        "digest": spec.digest(),
    }
    return build_report(
        rows, grid=grid, run=run, meta=meta, metric=metric, only=only
    )


def _row(cell: Mapping, outcome) -> dict:
    """One report row from an expanded cell and its resolved outcome."""
    row = {"digest": outcome.digest, **{k: cell[k] for k in FACTOR_ORDER}}
    # the one real-valued factor (0.5 KB is a legal level): always a float,
    # so 1 and 1.0 are one level to the analysis
    row["cache_kb"] = float(row["cache_kb"])
    row.update(
        status=outcome.status,
        error=outcome.error,
        attempts=outcome.attempts,
        wall_s=round(outcome.wall_s, 6),
    )
    value = outcome.value if isinstance(outcome.value, dict) else {}
    for field in RESULT_FIELDS:
        row[field] = value.get(field)
    return row
