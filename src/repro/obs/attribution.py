"""Loop-level miss attribution: *which* loop/statement/array misses.

The speedup tables report whole-run miss counts; explaining them needs the
breakdown this module provides.  The address stream the simulator consumes
carries, per access, the static *site* that issued it
(:func:`repro.runtime.codegen.compile_stream`), and
:class:`repro.machine.tracer.CacheTracer` hands every simulated chunk, with
its miss / write-back / TLB-miss flags, to a :class:`MissAttribution`.
Sites are keyed ``(loop path, statement label, array)``, the finest grain,
and the coarser views (per loop nest, per statement, per array) are
aggregations of it — so every view's totals sum exactly to the run's
:class:`~repro.machine.cache.CacheStats`, an invariant the ``repro.obs/1``
payload check and the test suite both assert.

Dirty evictions (write-backs) are charged to the access that *triggered*
the eviction, not the statement that originally dirtied the line — the
trigger is what a blocking transformation moves, so it is the attribution
that explains the tables.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Assign, If, Loop, Stmt

#: site key for accesses issued outside any DO loop (procedure prologue).
TOPLEVEL = "(toplevel)"


def stmt_label(stmt: Stmt) -> str:
    """Short, stable display label for a statement (the store target for
    assignments — ``A(I,J)`` — since that is how the paper talks about
    statements)."""
    if isinstance(stmt, Assign):
        return fmt_expr(stmt.target)
    if isinstance(stmt, If):
        return f"IF {fmt_expr(stmt.cond)}"[:48]
    if isinstance(stmt, Loop):
        return f"DO {stmt.var}"
    return type(stmt).__name__


# per-site counter slots
_ACC, _MISS, _WB, _TLB, _WRITES = range(5)


def _row_dict(row: list[int]) -> dict:
    return {
        "accesses": row[_ACC],
        "misses": row[_MISS],
        "writebacks": row[_WB],
        "tlb_misses": row[_TLB],
        "writes": row[_WRITES],
    }


SiteKey = tuple[tuple[str, ...], str, str]
"""``(loop path, statement label, array)``."""


class MissAttribution:
    """Fine-grained access/miss/write-back counters per site key.

    ``keys[n]`` is the key of the stream's site ``n``; several sites share a
    key (the two ``A(I,J)`` of an update), and their counts add up."""

    def __init__(self, keys: Sequence[SiteKey] = ()) -> None:
        self.keys = list(keys)
        # key -> [acc, miss, wb, tlb, writes], in order of first appearance
        self.sites: dict[SiteKey, list[int]] = {}

    def count(
        self,
        sites: np.ndarray,
        miss: np.ndarray,
        wrote_back: np.ndarray,
        tlb_miss: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Add one chunk of the trace: the site number of every access, and
        its flags in counter-slot order."""
        n = len(self.keys)
        columns = [np.bincount(sites, minlength=n)] + [
            np.bincount(sites[flags], minlength=n)
            for flags in (miss, wrote_back, tlb_miss, is_write)
        ]
        touched = np.flatnonzero(columns[0])
        for site, counts in zip(touched.tolist(), np.stack(columns, 1)[touched].tolist()):
            row = self.sites.setdefault(self.keys[site], [0, 0, 0, 0, 0])
            for slot, c in enumerate(counts):
                row[slot] += c

    # ---- aggregations ------------------------------------------------------
    def _agg(self, keyfn) -> dict[str, dict]:
        out: dict[str, list[int]] = {}
        for (path, stmt, array), row in self.sites.items():
            k = keyfn(path, stmt, array)
            acc = out.get(k)
            if acc is None:
                acc = out[k] = [0, 0, 0, 0, 0]
            for i in range(5):
                acc[i] += row[i]
        return {k: _row_dict(v) for k, v in sorted(out.items())}

    def by_loop(self) -> dict[str, dict]:
        """Per loop nest, keyed ``"K/I/J"`` (outer to inner)."""
        return self._agg(lambda path, stmt, array: "/".join(path) or TOPLEVEL)

    def by_statement(self) -> dict[str, dict]:
        """Per statement, keyed ``"K/I/J: A(I,J)"``."""
        return self._agg(
            lambda path, stmt, array: f"{'/'.join(path) or TOPLEVEL}: {stmt}"
        )

    def by_array(self) -> dict[str, dict]:
        return self._agg(lambda path, stmt, array: array)

    def totals(self) -> dict:
        total = [0, 0, 0, 0, 0]
        for row in self.sites.values():
            for i in range(5):
                total[i] += row[i]
        return _row_dict(total)

    def to_dict(self) -> dict:
        """JSON form: the fine rows (sorted by misses, descending) plus the
        three aggregate views and the totals."""
        rows = [
            {"loop": "/".join(path) or TOPLEVEL, "statement": stmt, "array": array,
             **_row_dict(row)}
            for (path, stmt, array), row in self.sites.items()
        ]
        rows.sort(key=lambda r: (-r["misses"], -r["accesses"], r["loop"], r["statement"]))
        return {
            "rows": rows,
            "by_loop": self.by_loop(),
            "by_statement": self.by_statement(),
            "by_array": self.by_array(),
            "totals": self.totals(),
        }
