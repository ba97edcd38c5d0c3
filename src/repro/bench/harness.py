"""Measurement and table rendering for the benchmark suite."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.ir.stmt import Procedure
from repro.machine.cache import CacheStats
from repro.machine.model import MachineModel
from repro.machine.tracer import trace_procedure


@dataclass(frozen=True)
class MeasureResult:
    """One variant's simulated run."""

    refs: int
    misses: int
    writebacks: int
    tlb_misses: int
    modeled_seconds: float
    wall_seconds: float  # wall time of the traced simulation itself

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.refs if self.refs else 0.0


def measure(
    proc: Procedure,
    sizes: Mapping[str, int],
    machine: MachineModel,
    arrays: Optional[Mapping] = None,
    seed: int = 0,
) -> MeasureResult:
    """Trace ``proc`` through ``machine``'s cache; model the time."""
    t0 = time.perf_counter()
    tracer = trace_procedure(proc, sizes, machine, arrays=arrays, seed=seed)
    wall = time.perf_counter() - t0
    st: CacheStats = tracer.stats
    tlb_st = tracer.tlb_stats
    return MeasureResult(
        refs=st.accesses,
        misses=st.misses,
        writebacks=st.writebacks,
        tlb_misses=tlb_st.misses if tlb_st is not None else 0,
        modeled_seconds=machine.cost.seconds(st, tlb_st),
        wall_seconds=wall,
    )


@dataclass
class Table:
    """A reproduction table: header metadata plus uniform rows."""

    title: str
    paper_ref: str
    machine: str
    columns: Sequence[str]
    rows: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, **cells) -> None:
        self.rows.append(cells)

    def render(self) -> str:
        out = [f"== {self.title}", f"   paper: {self.paper_ref}   machine: {self.machine}"]
        out.append(render_rows(self.rows, self.columns))
        for n in self.notes:
            out.append(f"   note: {n}")
        return "\n".join(out)

    def column(self, name: str) -> list:
        return [r.get(name) for r in self.rows]


def render_rows(rows: Sequence[Mapping], columns: Sequence[str]) -> str:
    """Fixed-width plain-text table."""
    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.3g}" if abs(v) < 1000 else f"{v:.4g}"
        return str(v)

    cells = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(str(c)), *(len(row[i]) for row in cells)) if cells else len(str(c))
        for i, c in enumerate(columns)
    ]
    lines = [
        "   " + "  ".join(str(c).rjust(w) for c, w in zip(columns, widths)),
        "   " + "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("   " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)
