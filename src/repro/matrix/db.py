"""Sqlite results database: one row per executed cell, keyed by digest.

The database lives next to the artifact store (``matrix.db`` under
``.repro-cache/`` or ``$REPRO_CACHE_DIR``) and is keyed by the **same
content-address digest** the store uses for the cell's artifact — so the
three layers of reuse compose:

1. a cell whose digest already has an ``ok`` row is **skipped** before
   it is even submitted (sweep resume; reruns recompute zero cells);
2. a cell without a row but with a warm store entry resolves as a
   ``hit`` at submit (``attempts=0``, nothing executed) and only the
   row insert happens;
3. only genuinely new cells reach a worker.

Rows are written one-by-one in autocommit mode as outcomes resolve, so
an interrupted sweep keeps everything that finished — resume is a digest
set-difference, not a journal replay.  Failed cells are recorded too
(status + error) but do **not** count as done: a resumed sweep retries
them.

The cell table is intentionally flat (one column per factor, one per
measurement) so ad-hoc SQL works: ``SELECT b, AVG(speedup) FROM cells
WHERE workload='lu_nopivot' GROUP BY b``.
"""

from __future__ import annotations

import json
import time
from typing import Iterable, Optional, Sequence

from repro.artifacts.sqlitedb import SqliteDB
from repro.errors import MatrixError

#: statuses that mean "this cell's row is authoritative; do not rerun"
OK_STATUSES = ("hit", "computed", "retried")

#: cells-table columns, in schema order
ROW_COLUMNS = (
    "digest",
    "sweep",
    "workload",
    "recipe",
    "n",
    "b",
    "cache_kb",
    "line_bytes",
    "assoc",
    "tlb_entries",
    "page_bytes",
    "status",
    "error",
    "attempts",
    "from_store",
    "wall_s",
    "refs",
    "misses",
    "writebacks",
    "tlb_misses",
    "miss_ratio",
    "modeled_s",
    "base_refs",
    "base_misses",
    "base_miss_ratio",
    "base_modeled_s",
    "speedup",
    "fingerprint",
    "created_s",
)

_CELLS_DDL = """\
CREATE TABLE IF NOT EXISTS cells (
    digest TEXT PRIMARY KEY,
    sweep TEXT NOT NULL,
    workload TEXT NOT NULL,
    recipe TEXT NOT NULL,
    n INTEGER,
    b INTEGER,
    cache_kb REAL NOT NULL,
    line_bytes INTEGER NOT NULL,
    assoc INTEGER NOT NULL,
    tlb_entries INTEGER NOT NULL,
    page_bytes INTEGER NOT NULL,
    status TEXT NOT NULL,
    error TEXT,
    attempts INTEGER NOT NULL DEFAULT 0,
    from_store INTEGER NOT NULL DEFAULT 0,
    wall_s REAL NOT NULL DEFAULT 0,
    refs INTEGER,
    misses INTEGER,
    writebacks INTEGER,
    tlb_misses INTEGER,
    miss_ratio REAL,
    modeled_s REAL,
    base_refs INTEGER,
    base_misses INTEGER,
    base_miss_ratio REAL,
    base_modeled_s REAL,
    speedup REAL,
    fingerprint TEXT,
    created_s REAL NOT NULL
)"""

_SWEEPS_DDL = """\
CREATE TABLE IF NOT EXISTS sweeps (
    digest TEXT PRIMARY KEY,
    spec TEXT NOT NULL,
    cells INTEGER NOT NULL,
    created_s REAL NOT NULL,
    updated_s REAL NOT NULL
)"""


class MatrixDB(SqliteDB):
    """One results database; use as a context manager or ``close()``."""

    BASENAME = "matrix.db"
    ERROR = MatrixError
    KIND = "matrix"
    DDL = (
        _CELLS_DDL,
        _SWEEPS_DDL,
        "CREATE INDEX IF NOT EXISTS cells_sweep ON cells(sweep)",
    )

    # ---- sweeps -----------------------------------------------------------
    def record_sweep(self, digest: str, spec_json: str, cells: int) -> None:
        now = time.time()
        self._conn.execute(
            "INSERT INTO sweeps (digest, spec, cells, created_s, updated_s) "
            "VALUES (?, ?, ?, ?, ?) "
            "ON CONFLICT(digest) DO UPDATE SET updated_s=excluded.updated_s",
            (digest, spec_json, cells, now, now),
        )

    def sweeps(self) -> list[dict]:
        rows = self._conn.execute(
            "SELECT * FROM sweeps ORDER BY created_s"
        ).fetchall()
        return [dict(r) for r in rows]

    def sweep_spec(self, digest: str) -> Optional[dict]:
        row = self._conn.execute(
            "SELECT spec FROM sweeps WHERE digest=?", (digest,)
        ).fetchone()
        return json.loads(row["spec"]) if row is not None else None

    # ---- cells ------------------------------------------------------------
    def record_cell(self, row: dict) -> None:
        """Insert-or-replace one result row (unknown keys ignored)."""
        values = [row.get(c) for c in ROW_COLUMNS]
        placeholders = ", ".join("?" for _ in ROW_COLUMNS)
        self._conn.execute(
            f"INSERT OR REPLACE INTO cells ({', '.join(ROW_COLUMNS)}) "
            f"VALUES ({placeholders})",
            values,
        )

    def ok_digests(self, digests: Sequence[str]) -> set:
        """The subset of ``digests`` with an authoritative (ok) row."""
        out: set = set()
        for chunk in _chunks(digests, 500):
            marks = ", ".join("?" for _ in chunk)
            ok = ", ".join("?" for _ in OK_STATUSES)
            rows = self._conn.execute(
                f"SELECT digest FROM cells WHERE digest IN ({marks}) "
                f"AND status IN ({ok})",
                list(chunk) + list(OK_STATUSES),
            ).fetchall()
            out.update(r["digest"] for r in rows)
        return out

    def rows(self, digests: Optional[Sequence[str]] = None) -> list[dict]:
        """Result rows (all, or the given digest set), in factor order."""
        if digests is None:
            fetched = self._conn.execute("SELECT * FROM cells").fetchall()
            out = [dict(r) for r in fetched]
        else:
            out = []
            for chunk in _chunks(digests, 500):
                marks = ", ".join("?" for _ in chunk)
                fetched = self._conn.execute(
                    f"SELECT * FROM cells WHERE digest IN ({marks})",
                    list(chunk),
                ).fetchall()
                out.extend(dict(r) for r in fetched)
        out.sort(
            key=lambda r: tuple(
                (v is None, v)
                for v in (
                    r["workload"], r["recipe"], r["n"], r["b"], r["cache_kb"],
                    r["line_bytes"], r["assoc"], r["tlb_entries"], r["page_bytes"],
                )
            )
        )
        return out

    def counts(self, digests: Sequence[str]) -> dict:
        """Status counts over the digest set, plus missing cells."""
        by_status: dict = {}
        found = 0
        for chunk in _chunks(digests, 500):
            marks = ", ".join("?" for _ in chunk)
            rows = self._conn.execute(
                f"SELECT status, COUNT(*) AS c FROM cells "
                f"WHERE digest IN ({marks}) GROUP BY status",
                list(chunk),
            ).fetchall()
            for r in rows:
                by_status[r["status"]] = by_status.get(r["status"], 0) + r["c"]
                found += r["c"]
        return {
            "total": len(digests),
            "done": sum(by_status.get(s, 0) for s in OK_STATUSES),
            "failed": found - sum(by_status.get(s, 0) for s in OK_STATUSES),
            "missing": len(digests) - found,
            "by_status": by_status,
        }


def _chunks(seq: Sequence, size: int) -> Iterable[Sequence]:
    for i in range(0, len(seq), size):
        yield seq[i : i + size]
