"""repro — a reproduction of Carr & Kennedy, *Compiler Blockability of
Numerical Algorithms* (Supercomputing 1992).

A source-to-source loop-restructuring compiler for a Fortran-77-like loop
language, plus the machine substrate to measure what it does to memory
behaviour:

- :mod:`repro.frontend` — parse the Fortran subset (and the Sec. 6
  ``BLOCK DO`` extensions) into the IR;
- :mod:`repro.ir` — the loop-nest IR, builders, printers;
- :mod:`repro.analysis` — dependence testing (with an iteration-space-
  exact Fourier–Motzkin backend), bounded regular sections, shapes, reuse,
  commutativity pattern matching;
- :mod:`repro.transform` — strip mining, (triangular) interchange,
  distribution, **index-set splitting**, (triangular) unroll-and-jam,
  scalar replacement/expansion, IF-inspection, and the blocking driver;
- :mod:`repro.pipeline` — named passes and workloads: ``derive`` runs a
  recipe and differentially verifies it byte for byte;
- :mod:`repro.check` — IR verification, legality, and the Sec. 5
  verdict (``lint_loop``: blockable / blockable-with-commutativity /
  not-blockable);
- :mod:`repro.lang` — lowering of ``BLOCK DO`` / ``IN DO`` / ``LAST()``
  with machine-driven blocking-factor choice;
- :mod:`repro.machine` — set-associative cache + TLB simulation, Fortran
  column-major layout, cycle cost model (RS/6000-540-like default);
- :mod:`repro.runtime` — reference interpreter and Python code generator
  (both 1-based, column-major), semantic-equivalence validation;
- :mod:`repro.algorithms` — the paper's kernels (LU, QR, SGEMM,
  convolutions) as IR builders + numpy oracles;
- :mod:`repro.bench` — the harness that regenerates every table and
  figure of the paper's evaluation.

Quick taste::

    >>> from repro import parse_procedure
    >>> from repro.check import lint_loop
    >>> proc = parse_procedure('''
    ... SUBROUTINE LU(N)
    ...   DOUBLE PRECISION A(N,N)
    ...   DO 10 K = 1,N-1
    ...     DO 20 I = K+1,N
    ... 20    A(I,K) = A(I,K) / A(K,K)
    ...     DO 10 J = K+1,N
    ...       DO 10 I = K+1,N
    ... 10      A(I,J) = A(I,J) - A(I,K) * A(K,J)
    ... END
    ... ''')
    >>> lint_loop(proc, "K").verdict
    'blockable'
"""

from repro.errors import (
    AnalysisError,
    MachineError,
    ParseError,
    ReproError,
    SemanticsError,
    TransformError,
)
from repro.frontend import parse_procedure, parse_statements
from repro.ir import Procedure, to_fortran
from repro.lang import lower_extensions
from repro.machine import MachineModel, RS6000_540, scaled_machine
from repro.runtime import assert_equivalent, compile_procedure, execute
from repro.transform import block_loop

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "MachineError",
    "MachineModel",
    "ParseError",
    "Procedure",
    "RS6000_540",
    "ReproError",
    "SemanticsError",
    "TransformError",
    "assert_equivalent",
    "block_loop",
    "compile_procedure",
    "execute",
    "lower_extensions",
    "parse_procedure",
    "parse_statements",
    "scaled_machine",
    "to_fortran",
    "__version__",
]
