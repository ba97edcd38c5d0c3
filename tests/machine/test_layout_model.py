"""Array layout, machine models, tracer glue."""

import numpy as np
import pytest

from repro.errors import MachineError
from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine.cache import Cache, CacheConfig
from repro.machine.layout import Layout
from repro.machine.model import CostModel, MachineModel, RS6000_540, scaled_machine
from repro.machine.tracer import CacheTracer, trace_procedure


class TestLayout:
    def test_column_major_addressing(self):
        lay = Layout({"A": (10, 10)}, itemsizes=8, line_bytes=64)
        base = lay.base_addr["A"]
        # consecutive rows in one column are adjacent
        assert lay.address("A", (2, 1)) - lay.address("A", (1, 1)) == 8
        # consecutive columns are a full column apart
        assert lay.address("A", (1, 2)) - lay.address("A", (1, 1)) == 80
        assert lay.address("A", (1, 1)) == base

    def test_arrays_line_separated(self):
        lay = Layout({"A": (4,), "B": (4,)}, itemsizes=8, line_bytes=64)
        assert lay.base_addr["B"] % 64 == 0
        assert lay.base_addr["B"] >= lay.base_addr["A"] + 32

    def test_rank_checked(self):
        lay = Layout({"A": (4, 4)})
        with pytest.raises(MachineError):
            lay.address("A", (1,))

    def test_bad_extent(self):
        with pytest.raises(MachineError):
            Layout({"A": (0,)})

    def test_for_procedure_respects_dtypes(self):
        p = Procedure(
            "t",
            ("N",),
            (ArrayDecl("A", (Var("N"),), "f4"), ArrayDecl("K", (Var("N"),), "i8")),
            (assign(ref("A", 1), 0.0),),
        )
        lay = Layout.for_procedure(p, {"N": 6}, line_bytes=32)
        assert lay.itemsize["A"] == 4
        assert lay.itemsize["K"] == 8
        assert lay.footprint_bytes("A") == 24

    def test_dtype_override(self):
        p = Procedure("t", ("N",), (ArrayDecl("A", (Var("N"),), "f8"),), (assign(ref("A", 1), 0.0),))
        lay = Layout.for_procedure(p, {"N": 4}, dtype_override="f4")
        assert lay.itemsize["A"] == 4


class TestCostModel:
    def test_cycles_composition(self):
        from repro.machine.cache import CacheStats

        cm = CostModel(ref_cost=1, miss_penalty=10, writeback_cost=2, tlb_penalty=5)
        st = CacheStats(accesses=100, misses=10, writebacks=3)
        assert cm.cycles(st) == 100 + 100 + 6
        tlb = CacheStats(accesses=100, misses=4)
        assert cm.cycles(st, tlb) == 206 + 20

    def test_seconds_uses_clock(self):
        from repro.machine.cache import CacheStats

        cm = CostModel(ref_cost=1, miss_penalty=0, writeback_cost=0, clock_mhz=1.0)
        assert cm.seconds(CacheStats(accesses=10**6)) == pytest.approx(1.0)


class TestMachines:
    def test_rs6000_geometry(self):
        assert RS6000_540.cache.size_bytes == 64 * 1024
        assert RS6000_540.cache.line_bytes == 128
        assert RS6000_540.tlb is not None
        assert RS6000_540.tlb.line_bytes == 4096

    def test_scaled_preserves_ratios(self):
        m = scaled_machine(4)
        assert m.cache.size_bytes == 4 * 1024
        assert m.cache.line_bytes == 32
        assert m.tlb is not None
        assert m.tlb.line_bytes == 1024

    def test_scale_one_is_identity(self):
        assert scaled_machine(1) is RS6000_540

    def test_bad_scale(self):
        with pytest.raises(MachineError):
            scaled_machine(0)

    def test_effective_fraction_validated(self):
        with pytest.raises(MachineError):
            MachineModel("x", CacheConfig(1024, 32, 2), effective_fraction=0.0)


class TestTracer:
    def _stream_proc(self):
        return Procedure(
            "s",
            ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0)),),
        )

    def test_stream_spatial_locality(self, tiny_machine):
        # 32B lines of f8 = 4 elements; streaming N=64 twice-touched
        # elements: one miss per line on the read, write hits
        tracer = trace_procedure(self._stream_proc(), {"N": 64}, tiny_machine)
        assert tracer.stats.accesses == 128
        assert tracer.stats.misses == 16

    def test_per_array_counters(self, tiny_machine):
        tracer = trace_procedure(self._stream_proc(), {"N": 8}, tiny_machine, attribute=True)
        by_array = tracer.attribution.by_array()
        assert set(by_array) == {"A"}
        assert (by_array["A"]["accesses"], by_array["A"]["misses"]) == (16, 2)

    def test_tlb_driven_when_configured(self):
        m = scaled_machine(4)
        tracer = trace_procedure(self._stream_proc(), {"N": 64}, m)
        assert tracer.tlb_stats is not None
        assert tracer.tlb_stats.accesses == tracer.stats.accesses

    def test_capacity_thrash_vs_fit(self, tiny_machine):
        # two sweeps over an array that fits vs one that doesn't
        p = Procedure(
            "s2",
            ("N",),
            (ArrayDecl("A", (Var("N"),)),),
            (
                do("R", 1, 2, do("I", 1, "N", assign(ref("A", "I"), ref("A", "I") + 1.0))),
            ),
        )
        fits = trace_procedure(p, {"N": 32}, tiny_machine)  # 256B < 512B
        spills = trace_procedure(p, {"N": 512}, tiny_machine)  # 4KB >> 512B
        assert fits.stats.misses == 8  # second sweep entirely cached
        assert spills.stats.misses >= 2 * 512 / 4  # both sweeps miss per line
