"""Glue between the runtime's trace hook and the cache simulator."""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.ir.stmt import Procedure
from repro.machine.cache import Cache, CacheStats
from repro.machine.layout import Layout
from repro.machine.model import MachineModel
from repro.obs import core as obs
from repro.obs.attribution import MissAttribution, stmt_label
from repro.runtime.codegen import compile_stream


class CacheTracer:
    """A :class:`repro.runtime.Tracer` that feeds a :class:`Cache` (and
    optionally a TLB, modeled as a second cache whose line is the page).

    Every (array, 1-based index, is_write) event is mapped through a
    :class:`Layout` to a byte address and driven through both.
    :meth:`access_many` takes the same trace as chunks of byte addresses
    instead and counts identically; calls to the two may be interleaved.

    Stores are driven through the TLB with their write flag intact, so a
    TLB entry touched by a store is marked dirty and its later eviction
    counts as a TLB write-back — modeling the page-table write-back (the
    dirty/reference PTE update) that a real MMU performs on evicting a
    dirty translation.  The default cost model charges TLB *misses* only;
    the write-back count is reported for analyses that want it.

    When an ``attribution`` is supplied (see :mod:`repro.obs.attribution`),
    every access that arrives through :meth:`access_many` is additionally
    charged to its site — the per-loop miss breakdown that explains the
    tables.
    """

    def __init__(
        self,
        layout: Layout,
        cache: Cache,
        tlb: Optional[Cache] = None,
        attribution: Optional[MissAttribution] = None,
    ):
        self.layout = layout
        self.cache = cache
        self.tlb = tlb
        self.attribution = attribution

    def access(self, array: str, index: tuple[int, ...], is_write: bool) -> None:
        addr = self.layout.address(array, index)
        self.cache.access(addr, is_write)
        if self.tlb is not None:
            self.tlb.access(addr, is_write)

    def access_many(
        self, addrs: np.ndarray, writes: np.ndarray, sites: Optional[np.ndarray] = None
    ) -> None:
        """Drive a chunk of the trace, as byte addresses under ``layout``
        with their write flags, through cache and TLB.  ``sites`` (the
        stream's site number per access) is read when there is an
        attribution to fill."""
        miss, wrote_back = self.cache.access_many(addrs, writes)
        tlb_miss = np.zeros(len(addrs), dtype=bool)
        if self.tlb is not None:
            tlb_miss, _ = self.tlb.access_many(addrs, writes)
        if self.attribution is not None:
            self.attribution.count(sites, miss, wrote_back, tlb_miss, writes)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def tlb_stats(self) -> Optional[CacheStats]:
        return self.tlb.stats if self.tlb is not None else None


def trace_procedure(
    proc: Procedure,
    sizes: Mapping[str, int],
    machine: MachineModel,
    arrays: Optional[Mapping] = None,
    seed: int = 0,
    dtype_override: str | None = None,
    attribute: bool = False,
) -> CacheTracer:
    """Run ``proc`` (compiled to an address stream that the simulator
    consumes in chunks) against ``machine``'s cache.

    Returns the tracer; ``tracer.stats`` has the miss counts and
    ``machine.cost.seconds(tracer.stats)`` the modeled time.
    ``attribute=True`` fills ``tracer.attribution`` with the
    per-loop/statement/array miss breakdown.
    """
    layout = Layout.for_procedure(
        proc, sizes, line_bytes=machine.cache.line_bytes, dtype_override=dtype_override
    )
    run = compile_stream(proc)
    attribution = None
    if attribute:
        attribution = MissAttribution(
            [(path, stmt_label(stmt), array) for path, stmt, array in run.sites]
        )
    tlb = Cache(machine.tlb) if machine.tlb is not None else None
    tracer = CacheTracer(layout, Cache(machine.cache), tlb, attribution=attribution)
    with obs.span(f"trace:{proc.name}", cat="machine") as span_args:
        run(sizes, layout, tracer.access_many, arrays=arrays, seed=seed)
        span_args["accesses"] = tracer.stats.accesses
        span_args["misses"] = tracer.stats.misses
    return tracer
