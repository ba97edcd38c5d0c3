"""Sweep driver: expand a grid, run it through the worker pool, persist
one row per cell, assemble the ``repro.matrix/1`` report.

The three reuse layers, outermost first:

1. **database skip** — cells whose digest already has an ok row are
   dropped before submission (``resume=True``; this is what makes an
   interrupted sweep restartable and a rerun free);
2. **store hit** — cells without a row but with a warm artifact resolve
   at submit time (``attempts=0``) and only the row insert runs;
3. **compute** — everything else goes to a worker.

Rows are recorded (autocommit) *as outcomes resolve*, interleaved with
:meth:`~repro.serve.pool.WorkerPool.poll`, so a sweep killed mid-grid
keeps every finished cell.  Cells that resolve to the same digest (e.g.
``recipe=default`` next to an explicit pass list naming the same
pipeline) coalesce into one cell — the grid is a set of computations,
not a set of labels.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Mapping, Optional

from repro.matrix.cell import RESULT_FIELDS
from repro.matrix.db import MatrixDB
from repro.matrix.grid import FACTOR_ORDER, GridSpec, cell_spec
from repro.matrix.report import ROW_STATUSES, build_report
from repro.obs import core as _obs
from repro.serve.jobs import job_key
from repro.serve.pool import WorkerPool
from repro.serve.store import ArtifactStore, key_digest


def cell_digests(spec: GridSpec, store: Optional[ArtifactStore] = None) -> dict:
    """digest -> expanded cell, deduplicated, in expansion order.

    The digest is computed exactly as the pool computes it at submit
    (``ArtifactStore.digest(job_key(...))``), so database rows, store
    artifacts, and in-flight jobs all share one address.
    """
    digest_of = store.digest if store is not None else key_digest
    out: dict = {}
    for cell in spec.cells():
        out.setdefault(digest_of(job_key(cell_spec(cell))), cell)
    return out


def run_grid(
    spec: GridSpec,
    workers: int = 2,
    store: Optional[ArtifactStore] = None,
    db: Optional[MatrixDB] = None,
    resume: bool = True,
    max_retries: int = 2,
    timeout_s: float = 600.0,
    meta: Optional[Mapping] = None,
    metric: str = "speedup",
    only=None,
    on_row: Optional[Callable[[dict], None]] = None,
) -> dict:
    """Run every cell of ``spec`` and return the ``repro.matrix/1`` doc.

    ``on_row`` is called with each row as it is recorded (skipped cells
    included) — the CLI uses it for progress, tests use it to interrupt
    a sweep deterministically mid-grid.
    """
    t0 = time.perf_counter()
    owned_db = db is None
    db = db if db is not None else MatrixDB()
    try:
        with _obs.span("matrix.sweep", cat="matrix", cells=spec.n_cells()):
            run = _run(
                spec, db, workers=workers, store=store, resume=resume,
                max_retries=max_retries, timeout_s=timeout_s, on_row=on_row,
            )
        run["elapsed_s"] = round(time.perf_counter() - t0, 4)
        rows = db.rows(run.pop("digests"))
        return build_report(
            rows, grid=spec, run=run, meta=meta, metric=metric, only=only
        )
    finally:
        if owned_db:
            db.close()


def _run(
    spec: GridSpec,
    db: MatrixDB,
    workers: int,
    store: Optional[ArtifactStore],
    resume: bool,
    max_retries: int,
    timeout_s: float,
    on_row: Optional[Callable[[dict], None]],
) -> dict:
    cells = cell_digests(spec, store)
    digests = list(cells)
    sweep = spec.digest()
    db.record_sweep(sweep, json.dumps(spec.to_json(), sort_keys=True), len(digests))

    done = db.ok_digests(digests) if resume else set()
    counts = {s: 0 for s in ROW_STATUSES}
    counts["skipped"] = len(done)
    _obs.count("matrix.cell.skipped", len(done))
    if on_row is not None and done:
        for row in db.rows(sorted(done)):
            on_row(row)

    todo = [(d, cells[d]) for d in digests if d not in done]
    if todo:
        with WorkerPool(
            workers=workers, store=store, max_retries=max_retries
        ) as pool:
            pending = [
                (digest, cell,
                 pool.submit(cell_spec(cell, timeout_s=timeout_s)))
                for digest, cell in todo
            ]
            while pending:
                still = []
                for digest, cell, handle in pending:
                    if not handle.done:
                        still.append((digest, cell, handle))
                        continue
                    row = _row(digest, sweep, cell, handle.outcome)
                    db.record_cell(row)
                    counts[row["status"]] += 1
                    _obs.count(f"matrix.cell.{row['status']}")
                    if on_row is not None:
                        on_row(row)
                if len(still) == len(pending):
                    pool.poll()
                pending = still

    return {
        "workers": workers,
        "total": len(digests),
        **counts,
        "digests": digests,
    }


def _row(digest: str, sweep: str, cell: Mapping, outcome) -> dict:
    """One database row from an expanded cell and its resolved outcome."""
    row = {k: cell[k] for k in FACTOR_ORDER}
    row.update(
        digest=digest,
        sweep=sweep,
        status=outcome.status,
        error=outcome.error,
        attempts=outcome.attempts,
        from_store=1 if outcome.status == "hit" else 0,
        wall_s=round(outcome.wall_s, 6),
        created_s=time.time(),
    )
    value = outcome.value if isinstance(outcome.value, dict) else {}
    for field in RESULT_FIELDS:
        row[field] = value.get(field)
    return row
