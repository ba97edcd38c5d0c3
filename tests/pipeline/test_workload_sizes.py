"""Workload size factories: parameterized sizes, byte-identical defaults.

Satellite regression for the matrix subsystem: registry entries accept a
problem size ``n`` and blocking factor ``b``, and at the defaults every
existing caller sees exactly what it saw before — same sizes mapping,
same built IR.
"""

from __future__ import annotations

import pytest

from repro.errors import PipelineError
from repro.ir.fingerprint import ir_fingerprint
from repro.pipeline.workloads import available_workloads, get_workload

NAMES = sorted(w.name for w in available_workloads())


class TestDefaultsUnchanged:
    @pytest.mark.parametrize("name", NAMES)
    def test_sizes_for_defaults_to_verify_sizes(self, name):
        w = get_workload(name)
        assert w.sizes_for() == dict(w.verify_sizes)
        assert w.sizes_for(None, None) == dict(w.verify_sizes)

    @pytest.mark.parametrize("name", NAMES)
    def test_factory_at_none_matches_registry(self, name):
        w = get_workload(name)
        if w.size_factory is not None:
            assert w.size_factory(None, None) == dict(w.verify_sizes)

    def test_build_is_independent_of_sizes(self):
        # sizes bind at trace time, never by editing IR
        w = get_workload("lu_nopivot")
        assert ir_fingerprint(w.build()) == ir_fingerprint(w.build())


class TestParameterized:
    def test_lu_binds_n_and_blocking(self):
        w = get_workload("lu_nopivot")
        assert w.sizes_for(24, 8) == {"N": 24, "KS": 8}
        assert w.sizes_for(24) == {"N": 24, "KS": 4}

    def test_conv_scales_all_extents(self):
        sizes = get_workload("conv").sizes_for(16)
        assert sizes["N1"] == 16
        assert 0 < sizes["N3"] <= 16
        assert 0 < sizes["N2"] < 16

    @pytest.mark.parametrize("name", ["conv", "aconv"])
    def test_a_size_that_breaks_a_stored_fact_is_refused(self, name):
        """At n=4 the conv factory binds N2=3, below the registered
        N2 >= 4 (unroll 4); ``--sizes`` refused that binding and
        ``sizes_for`` handed it on."""
        with pytest.raises(PipelineError, match="N2=3 breaks the workload's fact N2 >= 4"):
            get_workload(name).sizes_for(4)
        assert get_workload(name).sizes_for(5)["N2"] == 4

    def test_givens_keeps_tall_shape(self):
        sizes = get_workload("givens").sizes_for(12)
        assert sizes == {"M": 12, "N": 10}

    def test_bad_arguments_rejected(self):
        w = get_workload("lu_nopivot")
        with pytest.raises(PipelineError, match="n"):
            w.sizes_for(2)
        with pytest.raises(PipelineError, match="b"):
            w.sizes_for(16, 0)
