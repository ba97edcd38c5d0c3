"""Machine descriptions and the cycle cost model.

:data:`RS6000_540` approximates the paper's testbed, an IBM RS/6000 model
540: 30 MHz POWER with a 64 KB, 4-way set-associative, 128-byte-line data
cache and a main-memory latency in the paper's quoted 10–20 cycle band.

Running the *paper-size* problems (300–500 squared) through a per-element
Python trace is feasible but slow, so the benchmark harness usually runs
geometrically *scaled* configurations: problem sizes divided by ``s`` and
cache capacity divided by ``s^2`` (line size divided by up to ``s`` with a
floor), which preserves the ratio of working set to cache — the quantity
the paper's blocking results are about.  :func:`scaled_machine` constructs
these.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import MachineError
from repro.machine.cache import CacheConfig, CacheStats


@dataclass(frozen=True)
class CostModel:
    """Cycle model: ``cycles = refs*ref_cost + misses*miss_penalty +
    writebacks*writeback_cost + tlb_misses*tlb_penalty``.

    ``ref_cost`` charges the load/store and its associated arithmetic
    (the paper's kernels do ~1 flop per reference, pipelined), so modeled
    speedups reduce to the miss-count story the paper tells.  The TLB term
    reproduces the superlinear blowup of long-stride sweeps over large
    arrays (the paper's 84-second point Givens QR at 500x500).
    """

    ref_cost: float = 1.0
    miss_penalty: float = 18.0
    writeback_cost: float = 4.0
    tlb_penalty: float = 36.0
    clock_mhz: float = 30.0

    def cycles(self, stats: CacheStats, tlb: Optional[CacheStats] = None) -> float:
        total = (
            stats.accesses * self.ref_cost
            + stats.misses * self.miss_penalty
            + stats.writebacks * self.writeback_cost
        )
        if tlb is not None:
            total += tlb.misses * self.tlb_penalty
        return total

    def seconds(self, stats: CacheStats, tlb: Optional[CacheStats] = None) -> float:
        return self.cycles(stats, tlb) / (self.clock_mhz * 1e6)


@dataclass(frozen=True)
class MachineModel:
    """A named machine: cache geometry, optional TLB, cost model.

    ``effective_fraction`` is the portion of cache capacity the blocking-
    factor chooser targets (self-interference and irregular footprints make
    using 100% counterproductive; cf. Lam/Rothberg/Wolf 1991).  The TLB is
    modeled as one more cache whose "line" is the page.
    """

    name: str
    cache: CacheConfig
    cost: CostModel = CostModel()
    effective_fraction: float = 0.5
    tlb: Optional[CacheConfig] = None

    def __post_init__(self) -> None:
        if not (0.0 < self.effective_fraction <= 1.0):
            raise MachineError("effective_fraction must be in (0, 1]")

    @property
    def effective_cache_bytes(self) -> int:
        return int(self.cache.size_bytes * self.effective_fraction)

    def describe(self) -> str:
        return f"{self.name}: {self.cache.describe()}, miss={self.cost.miss_penalty:g}cy"


#: The paper's testbed, approximately (POWER: 64KB 4-way D-cache with
#: 128B lines; 128-entry TLB over 4KB pages, modeled fully associative).
RS6000_540 = MachineModel(
    name="RS/6000-540",
    cache=CacheConfig(size_bytes=64 * 1024, line_bytes=128, assoc=4),
    cost=CostModel(
        ref_cost=1.0, miss_penalty=18.0, writeback_cost=4.0, tlb_penalty=36.0,
        clock_mhz=30.0,
    ),
    tlb=CacheConfig(size_bytes=128 * 4096, line_bytes=4096, assoc=0),
)


def machine_from_factors(
    cache_kb: float = 4,
    line_bytes: int = 32,
    assoc: int = 2,
    tlb_entries: int = 16,
    page_bytes: int = 256,
    base: MachineModel = RS6000_540,
) -> MachineModel:
    """A machine built from experiment-grid factor values.

    This is the geometry constructor :mod:`repro.matrix` cells use: every
    knob the paper's cache story depends on (capacity, line size,
    associativity, TLB reach) is a grid factor, and the cost model is
    inherited from ``base`` so modeled times across cells differ only by
    geometry.  ``assoc=0`` is fully associative; ``tlb_entries=0`` drops
    the TLB entirely.  Validation is :class:`CacheConfig`'s
    (:class:`~repro.errors.MachineError` on a non-power-of-two size, a
    line larger than the cache, an associativity that does not divide the
    line count) — a deterministic verdict, so a mis-specified cell fails
    without retries.
    """
    size_bytes = int(round(cache_kb * 1024))
    cache = CacheConfig(
        size_bytes=size_bytes, line_bytes=int(line_bytes), assoc=int(assoc)
    )
    tlb = None
    if int(tlb_entries):
        tlb = CacheConfig(
            size_bytes=int(tlb_entries) * int(page_bytes),
            line_bytes=int(page_bytes),
            assoc=0,
        )
    ways = "fa" if int(assoc) == 0 else f"{int(assoc)}w"
    name = f"grid/{cache_kb:g}KB-{int(line_bytes)}B-{ways}"
    if tlb is not None:
        name += f"-tlb{int(tlb_entries)}x{int(page_bytes)}"
    return replace(base, name=name, cache=cache, tlb=tlb)


def scaled_machine(scale: int, base: MachineModel = RS6000_540) -> MachineModel:
    """Shrink ``base`` for problems scaled down by ``scale`` per dimension.

    Capacity scales by ``scale**2`` (2-D working sets), line size by
    ``scale`` with a floor of 32 bytes — keeping both the
    capacity-miss structure and the spatial-reuse structure of the original
    problem/machine pair.  ``scale`` must divide the base geometry into
    legal powers of two.
    """
    if scale < 1:
        raise MachineError("scale must be >= 1")
    if scale == 1:
        return base

    def _pow2_floor(x: int) -> int:
        p = 1
        while p * 2 <= x:
            p *= 2
        return p

    size = max(_pow2_floor(base.cache.size_bytes // (scale * scale)), 256)
    line = max(_pow2_floor(base.cache.line_bytes // scale), 32)
    assoc = base.cache.assoc
    while assoc > 1 and (size // line) % assoc != 0:
        assoc //= 2
    cfg = CacheConfig(size_bytes=size, line_bytes=line, assoc=assoc)
    tlb = None
    if base.tlb is not None:
        page = max(_pow2_floor(base.tlb.line_bytes // scale), 64)
        entries = max(_pow2_floor(base.tlb.n_lines // scale), 8)
        tlb = CacheConfig(size_bytes=entries * page, line_bytes=page, assoc=0)
    return replace(base, name=f"{base.name}/s{scale}", cache=cfg, tlb=tlb)
