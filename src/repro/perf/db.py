"""Sqlite run-history database: one row per recorded artifact.

The database — the one sqlite file in the stack — lives next to the
artifact store (``perf.db`` under ``.repro-cache/`` or
``$REPRO_CACHE_DIR``) and keys each run by the **content digest of the
artifact itself** — recording the same artifact twice stores two runs
with the same digest, which is exactly what a before/after comparison
on identical inputs needs (and what ``gate`` exploits to prove its own
noise floor).

Two tables, deliberately flat so ad-hoc SQL works::

    runs(id, label, artifact_schema, artifact_digest, source,
         git_sha, created_s, meta)
    metrics(run_id, name, value)        -- one row per flattened metric

    SELECT r.created_s, m.value FROM metrics m JOIN runs r ON r.id=m.run_id
    WHERE m.name='pass:block.wall_s' ORDER BY r.created_s;

The connection is in autocommit mode, so every statement is durable on
its own; a run and its metrics land inside one explicit transaction, so
a crash mid-record leaves no half-run.

Run **selectors** (accepted everywhere a CLI names a run): a numeric id
(``17``), ``latest``/``latest~N`` (N records back), or a label — labels
resolve to the *most recent* run with that label, so ``gate --baseline
main`` keeps working as ``main`` is re-recorded.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from pathlib import Path
from typing import Optional

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


#: bumped when the table set changes incompatibly
SCHEMA_VERSION = 1


class PerfDB:
    """One run-history database; use as a context manager or ``close()``."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = Path(path) if path is not None else (
            Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache")) / "perf.db"
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "PerfDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _init_schema(self) -> None:
        try:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema_version'"
            ).fetchone()
        except sqlite3.DatabaseError as e:
            raise PerfError(f"{self.path} is not a perf database: {e}") from e
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        elif int(row["value"]) != SCHEMA_VERSION:
            raise PerfError(
                f"{self.path} has schema v{row['value']}, want "
                f"v{SCHEMA_VERSION}; delete the file to start over"
            )
        for statement in (
            _RUNS_DDL,
            _METRICS_DDL,
            "CREATE INDEX IF NOT EXISTS metrics_name ON metrics(name)",
            "CREATE INDEX IF NOT EXISTS runs_label ON runs(label)",
        ):
            self._conn.execute(statement)

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
