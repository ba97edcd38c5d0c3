"""`trace_procedure` (the address stream through `access_many`) counts what
the reference interpreter counts through `access`, and `CacheTracer` counts
the same whichever of the two entry points it is fed."""

import numpy as np
import pytest

from repro.machine import Cache, CacheTracer, Layout, scaled_machine, trace_procedure
from repro.pipeline import available_workloads, derive, get_workload
from repro.runtime.codegen import compile_procedure
from repro.runtime.interpreter import execute
from tests.conftest import PerArrayReference, by_array_counts

WORKLOADS = [w.name for w in available_workloads()]


def assert_same_counts(a: CacheTracer, b: CacheTracer) -> None:
    assert a.stats == b.stats
    assert a.tlb_stats == b.tlb_stats


def assert_counts_like_the_interpreter(proc, sizes, machine, seed=0) -> CacheTracer:
    """`trace_procedure` against the reference: one `tracer.access` per
    touch of the interpreter, in total and per array."""
    fast = trace_procedure(proc, sizes, machine, seed=seed, attribute=True)
    layout = Layout.for_procedure(proc, sizes, line_bytes=machine.cache.line_bytes)
    tlb = Cache(machine.tlb) if machine.tlb is not None else None
    reference = PerArrayReference(CacheTracer(layout, Cache(machine.cache), tlb))
    execute(proc, sizes, tracer=reference, seed=seed)
    assert_same_counts(fast, reference.tracer)
    assert by_array_counts(fast) == reference.by_array
    return fast


@pytest.mark.parametrize("name", WORKLOADS)
def test_codegen_engine_equals_interpreter_engine(name, tiny_machine):
    w = get_workload(name)
    for machine in (tiny_machine, scaled_machine(16)):  # without and with a TLB
        for proc in (w.build(), derive(name).procedure):
            sizes = {p: w.sizes_for()[p] for p in proc.params}
            fast = assert_counts_like_the_interpreter(proc, sizes, machine, seed=5)
            assert fast.stats.misses > 0, proc.name


def test_many_chunks_count_like_the_interpreter():
    """Large enough to be consumed in several chunks."""
    proc, sizes, machine = get_workload("lu_nopivot").build(), {"N": 36}, scaled_machine(8)
    fast = assert_counts_like_the_interpreter(proc, sizes, machine)
    assert fast.stats.accesses > 40_000


class TestTracerEntryPoints:
    @pytest.fixture
    def recorded(self, recording_tracer):
        """(layout, events) of a kernel over several arrays."""
        proc = get_workload("conv").build()
        sizes = get_workload("conv").sizes_for()
        recorder = recording_tracer()
        compile_procedure(proc, traced=True)(sizes, tracer=recorder)
        return Layout.for_procedure(proc, sizes, line_bytes=32), recorder.events

    def _tracer(self, layout):
        m = scaled_machine(16)
        return CacheTracer(layout, Cache(m.cache), Cache(m.tlb))

    def test_access_many_equals_access_and_interleaves(self, recorded):
        layout, events = recorded
        one, many, mixed = (self._tracer(layout) for _ in range(3))
        for a, i, w in events:
            one.access(a, i, w)
        addrs = np.array([layout.address(a, i) for a, i, _ in events], dtype=np.int64)
        writes = np.array([w for *_, w in events], dtype=bool)
        many.access_many(addrs, writes)
        assert_same_counts(many, one)
        cut = len(events) // 3
        mixed.access_many(addrs[:cut], writes[:cut])
        for a, i, w in events[cut : 2 * cut]:
            mixed.access(a, i, w)
        mixed.access_many(addrs[2 * cut :], writes[2 * cut :])
        assert_same_counts(mixed, one)
