"""Sqlite run-history database: one row per recorded artifact.

The database lives next to the artifact store and the matrix results
(``perf.db`` under ``.repro-cache/`` or ``$REPRO_CACHE_DIR``) and keys
each run by the **content digest of the artifact itself** — recording
the same artifact twice stores two runs with the same digest, which is
exactly what a before/after comparison on identical inputs needs (and
what ``gate`` exploits to prove its own noise floor).

Two tables, deliberately flat so ad-hoc SQL works::

    runs(id, label, artifact_schema, artifact_digest, source,
         git_sha, created_s, meta)
    metrics(run_id, name, value)        -- one row per flattened metric

    SELECT r.created_s, m.value FROM metrics m JOIN runs r ON r.id=m.run_id
    WHERE m.name='pass:block.wall_s' ORDER BY r.created_s;

Rows are written in autocommit mode (the
:class:`~repro.artifacts.sqlitedb.SqliteDB` discipline): a run and its
metrics land inside one explicit transaction, so a crash mid-record
leaves no half-run.

Run **selectors** (accepted everywhere a CLI names a run): a numeric id
(``17``), ``latest``/``latest~N`` (N records back), or a label — labels
resolve to the *most recent* run with that label, so ``gate --baseline
main`` keeps working as ``main`` is re-recorded.
"""

from __future__ import annotations

import json
import sqlite3
import time
from typing import Optional

from repro.artifacts.sqlitedb import SqliteDB
from repro.errors import PerfError
from repro.perf import ingest

_RUNS_DDL = """\
CREATE TABLE IF NOT EXISTS runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    label TEXT NOT NULL DEFAULT '',
    artifact_schema TEXT NOT NULL,
    artifact_digest TEXT NOT NULL,
    source TEXT NOT NULL DEFAULT '',
    git_sha TEXT,
    created_s REAL NOT NULL,
    meta TEXT NOT NULL DEFAULT '{}'
)"""

_METRICS_DDL = """\
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(id),
    name TEXT NOT NULL,
    value REAL NOT NULL,
    PRIMARY KEY (run_id, name)
)"""


class PerfDB(SqliteDB):
    """One run-history database; use as a context manager or ``close()``."""

    BASENAME = "perf.db"
    ERROR = PerfError
    KIND = "perf"
    DDL = (
        _RUNS_DDL,
        _METRICS_DDL,
        "CREATE INDEX IF NOT EXISTS metrics_name ON metrics(name)",
        "CREATE INDEX IF NOT EXISTS runs_label ON runs(label)",
    )

    # ---- recording --------------------------------------------------------
    def record(
        self,
        doc: dict,
        label: str = "",
        source: str = "",
        git_sha: Optional[str] = None,
        meta: Optional[dict] = None,
        created_s: Optional[float] = None,
    ) -> dict:
        """Flatten ``doc`` and store it as a new run; returns the run row
        (with ``metrics`` count).  :class:`PerfError` on an unsupported
        artifact or one that flattens to zero metrics."""
        schema = ingest.detect_schema(doc)
        metrics = ingest.flatten(doc)
        if not metrics:
            raise PerfError(
                f"artifact ({schema}) flattened to zero numeric metrics"
            )
        digest = ingest.artifact_digest(doc)
        now = created_s if created_s is not None else time.time()
        cur = self._conn.cursor()
        try:
            cur.execute("BEGIN")
            cur.execute(
                "INSERT INTO runs (label, artifact_schema, artifact_digest, "
                "source, git_sha, created_s, meta) VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    label,
                    schema,
                    digest,
                    source,
                    git_sha,
                    now,
                    json.dumps(meta or {}, sort_keys=True),
                ),
            )
            run_id = cur.lastrowid
            cur.executemany(
                "INSERT INTO metrics (run_id, name, value) VALUES (?, ?, ?)",
                [(run_id, name, value) for name, value in sorted(metrics.items())],
            )
            cur.execute("COMMIT")
        except sqlite3.DatabaseError as e:
            cur.execute("ROLLBACK")
            raise PerfError(f"cannot record run: {e}") from e
        return self.run(run_id)

    # ---- lookup -----------------------------------------------------------
    def run(self, selector) -> dict:
        """Resolve a selector (id, ``latest``, ``latest~N``, or label) to
        its run row; :class:`PerfError` when nothing matches."""
        row = self._resolve(selector)
        if row is None:
            raise PerfError(f"no recorded run matches {selector!r}")
        out = dict(row)
        out["meta"] = json.loads(out.get("meta") or "{}")
        out["metrics"] = self._conn.execute(
            "SELECT COUNT(*) AS c FROM metrics WHERE run_id=?", (out["id"],)
        ).fetchone()["c"]
        return out

    def _resolve(self, selector) -> Optional[sqlite3.Row]:
        q = "SELECT * FROM runs"
        if isinstance(selector, int) or (
            isinstance(selector, str) and selector.isdigit()
        ):
            return self._conn.execute(
                f"{q} WHERE id=?", (int(selector),)
            ).fetchone()
        if isinstance(selector, str) and selector.startswith("latest"):
            back = 0
            if "~" in selector:
                _, _, n = selector.partition("~")
                if not n.isdigit():
                    raise PerfError(f"bad selector {selector!r}")
                back = int(n)
            return self._conn.execute(
                f"{q} ORDER BY id DESC LIMIT 1 OFFSET ?", (back,)
            ).fetchone()
        return self._conn.execute(
            f"{q} WHERE label=? ORDER BY id DESC LIMIT 1", (selector,)
        ).fetchone()

    def runs(self, limit: Optional[int] = None) -> list[dict]:
        """All runs, oldest first (or the newest ``limit`` of them)."""
        rows = self._conn.execute("SELECT * FROM runs ORDER BY id").fetchall()
        if limit is not None:
            rows = rows[-limit:]
        return [dict(r) for r in rows]

    def metrics_for(self, run_id: int) -> dict:
        """``{name: value}`` for one run."""
        rows = self._conn.execute(
            "SELECT name, value FROM metrics WHERE run_id=? ORDER BY name",
            (run_id,),
        ).fetchall()
        return {r["name"]: r["value"] for r in rows}

    def history(self, metric: str, limit: int = 50) -> list[dict]:
        """The metric's timeline, oldest first: one entry per run that
        recorded it (``run_id``, ``label``, ``git_sha``, ``created_s``,
        ``value``)."""
        rows = self._conn.execute(
            "SELECT r.id AS run_id, r.label, r.git_sha, r.created_s, m.value "
            "FROM metrics m JOIN runs r ON r.id = m.run_id "
            "WHERE m.name=? ORDER BY r.id DESC LIMIT ?",
            (metric, limit),
        ).fetchall()
        return [dict(r) for r in reversed(rows)]

    def metric_names(self, like: Optional[str] = None) -> list[str]:
        """Distinct metric names, optionally filtered by SQL LIKE."""
        if like is None:
            rows = self._conn.execute(
                "SELECT DISTINCT name FROM metrics ORDER BY name"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT DISTINCT name FROM metrics WHERE name LIKE ? "
                "ORDER BY name",
                (like,),
            ).fetchall()
        return [r["name"] for r in rows]
