"""Bench harness units and fast smoke checks of the experiment builders.

The full tables live in ``benchmarks/``; here we validate the machinery
(measure, Table rendering, scaled workloads) and that each compiler-derived
variant builder yields a semantically equivalent program — on small sizes,
so the whole file stays quick.
"""

import dataclasses

import numpy as np
import pytest

import repro.bench.experiments as E
from repro.algorithms import (
    aconv_ir,
    conv_ir,
    lu_pivot_block_fig8_ir,
    lu_pivot_point_ir,
    lu_point_ir,
    matmul_guarded_ir,
    sparse_b,
)
from repro.bench.harness import MeasureResult, Table, measure, render_rows
from repro.machine.model import scaled_machine
from repro.runtime.validate import assert_equivalent


class TestMeasure:
    def test_counts_are_consistent(self, vecadd_proc, tiny_machine):
        r = measure(vecadd_proc, {"N": 8, "M": 16}, tiny_machine)
        # per J iteration: M*(A load + A store) + 1 B load (traced at the
        # access level, B is re-loaded each I iteration in the source)
        assert r.refs == 8 * 16 * 3
        assert 0 < r.misses <= r.refs
        assert r.modeled_seconds > 0
        assert r.miss_ratio == r.misses / r.refs

    def test_deterministic(self, vecadd_proc, tiny_machine):
        a = measure(vecadd_proc, {"N": 8, "M": 16}, tiny_machine, seed=1)
        b = measure(vecadd_proc, {"N": 8, "M": 16}, tiny_machine, seed=1)
        assert (a.refs, a.misses, a.writebacks) == (b.refs, b.misses, b.writebacks)

    def test_tlb_counted_when_present(self, vecadd_proc):
        m = scaled_machine(4)
        r = measure(vecadd_proc, {"N": 8, "M": 2048}, m)
        assert r.tlb_misses > 0


class TestTable:
    def test_render(self):
        t = Table("demo", "nowhere", "toy", columns=("a", "b"))
        t.add(a=1, b=2.34567)
        t.add(a=10, b=0.001)
        text = t.render()
        assert "demo" in text and "2.35" in text
        assert t.column("a") == [1, 10]

    def test_render_rows_alignment(self):
        text = render_rows([{"x": 1}, {"x": 100}], ("x",))
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # fixed width


class TestScaling:
    def test_scaled_size_and_block(self):
        assert E.scaled_size(300, 4) == 75
        assert E.scaled_size(500, 4) == 125
        assert E.scaled_block(32, 4) == 8
        assert E.scaled_block(64, 4) == 16
        assert E.scaled_block(2, 4) == 2  # floor

    def test_conv_sizes_mix(self):
        s = E.conv_sizes(300)
        # ~75% of iterations must be in the triangular region
        n1, n2, n3 = s["N1"], s["N2"], s["N3"]
        rhomb = (n1 - n2) * (n2 + 1)
        tri = sum(n1 - i + 1 for i in range(n1 - n2 + 1, n3 + 1))
        frac = tri / (tri + rhomb)
        assert 0.65 <= frac <= 0.85


class TestVariantBuilders:
    """Every compiler-built benchmark variant must be semantically
    equivalent to its point algorithm (small sizes; big runs are in
    benchmarks/)."""

    def test_derived_block_lu(self):
        assert_equivalent(lu_point_ir(), E.derived_block_lu(), {"N": 11, "KS": 4})

    def test_lu_two_plus(self):
        assert_equivalent(lu_point_ir(), E.lu_two_plus(), {"N": 14, "KS": 4})
        assert_equivalent(lu_point_ir(), E.lu_two_plus(), {"N": 9, "KS": 4})

    def test_lu_pivot_one_plus(self):
        assert_equivalent(
            lu_pivot_point_ir(), E.lu_pivot_one_plus(), {"N": 13, "KS": 4}, exact=True
        )

    def test_derived_block_lu_pivot(self):
        """T4's column "1": the derived Fig. 8 computes what the point
        algorithm does and, through the simulator, is indistinguishable
        from the hand transcription it is the derivation of."""
        derived = E.derived_block_lu_pivot()
        assert_equivalent(
            lu_pivot_point_ir(), derived, {"N": 13, "KS": 4}, exact=False
        )
        machine, sizes = scaled_machine(4), {"N": 40, "KS": 8}
        got, want = (
            dataclasses.replace(measure(proc, sizes, machine), wall_seconds=0)
            for proc in (derived, lu_pivot_block_fig8_ir())
        )
        assert got == want and got.tlb_misses > 0

    def test_matmul_variants(self):
        b = sparse_b(18, 0.15, run_len=4).astype(np.float32)
        for variant in (E.matmul_uj_naive(), E.matmul_ujif()):
            assert_equivalent(
                matmul_guarded_ir(), variant, {"N": 18}, arrays={"B": b}, exact=True
            )

    @pytest.mark.parametrize("kind,point", [("aconv", aconv_ir()), ("conv", conv_ir())])
    def test_conv_transformed(self, kind, point):
        sizes = {"N1": 42, "N2": 36, "N3": 42, "DT": 0.5}
        assert_equivalent(point, E.conv_transformed(kind), sizes, exact=False, rtol=1e-9)

    def test_givens_measured_variant(self):
        from repro.algorithms import givens_point_ir

        rng = np.random.default_rng(3)
        a = rng.uniform(-1, 1, (12, 9))
        assert_equivalent(
            givens_point_ir(),
            E.givens_opt_measured(),
            {"M": 12, "N": 9},
            arrays={"A": a},
            exact=True,
        )
