"""What the sqlite history databases kept next to the artifact store
share: where they live, how they open, and how they version.

:class:`~repro.matrix.db.MatrixDB` (``matrix.db``, one row per sweep
cell) and :class:`~repro.perf.db.PerfDB` (``perf.db``, one row per
recorded artifact) subclass :class:`SqliteDB` with their own table sets
and queries.
"""

from __future__ import annotations

import os
import sqlite3
from pathlib import Path
from typing import Optional


class SqliteDB:
    """One database file; use as a context manager or ``close()``.

    The connection is in autocommit mode: every statement is durable on
    its own (a SIGKILLed sweep resumes from its last row) and anything
    that must land together runs inside an explicit transaction.
    """

    #: file name under the store root when no path is given
    BASENAME = ""
    #: bumped when the table set changes incompatibly
    SCHEMA_VERSION = 1
    #: the :class:`~repro.errors.ReproError` subclass this database raises
    ERROR: type = Exception
    #: what the file is called in error messages ("matrix", "perf")
    KIND = ""
    #: ``CREATE ... IF NOT EXISTS`` statements for the table set
    DDL: tuple = ()

    @classmethod
    def default_path(cls) -> Path:
        root = Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))
        return root / cls.BASENAME

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = Path(path) if path is not None else self.default_path()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        self._conn.row_factory = sqlite3.Row
        self._init_schema()

    def close(self) -> None:
        self._conn.close()

    def __enter__(self):
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
            raise self.ERROR(
                f"{self.path} is not a {self.KIND} database: {e}"
            ) from e
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(self.SCHEMA_VERSION),),
            )
        elif int(row["value"]) != self.SCHEMA_VERSION:
            raise self.ERROR(
                f"{self.path} has schema v{row['value']}, want "
                f"v{self.SCHEMA_VERSION}; delete the file to start over"
            )
        for statement in self.DDL:
            self._conn.execute(statement)
