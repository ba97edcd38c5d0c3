"""Every hand-written program, pinned by its structural fingerprint.

The listing families are built from shared steps (one LU elimination
step, one Givens rotation, one convolution kernel, one guarded matmul
nest); these constants were captured from the listings written out in
full, so a change to a shared step that moves any program fails here by
name.  A deliberate change to a transcription re-pins its constant in the
open.
"""

from __future__ import annotations

import pytest

from repro import algorithms as alg
from repro.ir.fingerprint import ir_fingerprint

PINNED = {
    "aconv_ir": "407d77ea029f9aa262daf10c15dc7a2990da368b1c972ec09403fa5942107793",
    "conv_ir": "2fd37971ee0499706c9d37e9b3aaa9242011f8c96766be528fe117f6482d8521",
    "givens_optimized_ir": "b479c27cf427fbcddca8b9e9ceec80e1d6ff1353af035bfd0bbe395e2abb6484",
    "givens_point_ir": "b473b4a376b4f8893c19e1396363ff8d0f33268dfe16c42930d4fa5c9edf4028",
    "householder_point_ir": "1dd1b2d33519a5b0ba70911c889386af1e54cd05b5f7d9ad7210bc06804fcdf2",
    "lu_block_fig6_ir": "a6eeb767ae183094ff3971943f019c8cc6f9e747fde9a6ed7bdc8f2cf04ff885",
    "lu_pivot_block_fig8_ir": "8da30be83323b490eca6867e50a0f5555f9152504c9a3aa0771b07924d3d7619",
    "lu_pivot_point_ir": "4d9340158c6e15dbdcbf2b8d291b7d46be59511eb82afa461efe49a960f0dfe1",
    "lu_point_ir": "ba77b2d8deb45bd6fe7a0809b50cb991671940c5bcd47b239aec953efd99a5e1",
    "lu_sorensen_ir": "2c7a536e9fa9e4d38b38c8d0ee92043b467ba8d2dc485095d11e74065d9a1d59",
    "matmul_guard_inner_ir": "524343f7be8676703565569219ddb949f411aff0fe5f016cc4576a5f49633e8c",
    "matmul_guarded_ir": "4a190595b2bd588091289af8af928314818bf842d7f716edac624e9b434bde3d",
}


def test_every_public_builder_is_pinned():
    assert sorted(n for n in alg.__all__ if n.endswith("_ir")) == sorted(PINNED)


@pytest.mark.parametrize("builder", sorted(PINNED))
def test_builder_matches_its_pin(builder):
    assert ir_fingerprint(getattr(alg, builder)()) == PINNED[builder]
