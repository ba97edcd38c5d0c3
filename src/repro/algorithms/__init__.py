"""The paper's numerical algorithms, as IR builders + numpy references.

Every listing in the paper exists here twice:

- an **IR builder** (``*_ir()``) returning the
  :class:`~repro.ir.Procedure` transcription of the Fortran listing, the
  input the compiler study and benchmarks operate on;
- a **numpy reference** (``*_ref()``) implementing the same mathematics
  directly, the independent oracle the test suite validates both IR
  engines against.

Each family of listings is built from shared steps, as the paper derives
one listing from another: the five LU programs from one elimination step
(Fig. 8 is Fig. 6's panel plus Fig. 7's pivot step; Sorensen's stand-in
reorders Fig. 6's trailing update), Figs. 9/10 from one rotation, the two
convolutions from one kernel, and the two guarded matmuls from one nest
that differs in where the guard sits.  The numpy references share nothing
with the builders.

Modules: :mod:`repro.algorithms.lu` (Sec. 5.1–5.2),
:mod:`repro.algorithms.qr_householder` (Sec. 5.3),
:mod:`repro.algorithms.qr_givens` (Sec. 5.4),
:mod:`repro.algorithms.matmul` (Sec. 4's guarded SGEMM loop),
:mod:`repro.algorithms.convolution` (Sec. 3.2's seismic kernels).
"""

from repro.algorithms.convolution import aconv_ir, aconv_ref, conv_ir, conv_ref
from repro.algorithms.lu import (
    lu_block_fig6_ir,
    lu_pivot_block_fig8_ir,
    lu_pivot_point_ir,
    lu_pivot_ref,
    lu_point_ir,
    lu_ref,
    lu_sorensen_ir,
)
from repro.algorithms.matmul import (
    matmul_guard_inner_ir,
    matmul_guarded_ir,
    matmul_ref,
    sparse_b,
)
from repro.algorithms.qr_givens import givens_optimized_ir, givens_point_ir, givens_ref
from repro.algorithms.qr_householder import (
    householder_block_ref,
    householder_point_ir,
    householder_ref,
)

__all__ = [
    "aconv_ir",
    "aconv_ref",
    "conv_ir",
    "conv_ref",
    "givens_optimized_ir",
    "givens_point_ir",
    "givens_ref",
    "householder_block_ref",
    "householder_point_ir",
    "householder_ref",
    "lu_block_fig6_ir",
    "lu_pivot_block_fig8_ir",
    "lu_pivot_point_ir",
    "lu_pivot_ref",
    "lu_point_ir",
    "lu_ref",
    "lu_sorensen_ir",
    "matmul_guard_inner_ir",
    "matmul_guarded_ir",
    "matmul_ref",
    "sparse_b",
]
