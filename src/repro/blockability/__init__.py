"""The blockability study (paper Sec. 5).

An algorithm is *blockable* when the compiler can derive the best known
block algorithm from its natural point form.  This package runs the
question end-to-end:

- :func:`repro.blockability.driver.classify` — drives
  :func:`repro.transform.block_loop` over a point algorithm, first with
  dependence information alone, then (optionally) with the Sec. 5.2
  commutativity oracle, and returns a :class:`Verdict`;
- :func:`repro.analysis.commutativity.commutativity_oracle` (re-exported
  here) — the pattern-matching oracle: a preventing dependence may be
  ignored when it connects a row-interchange group with a
  whole-column-update group on the same array.

The paper's findings, reproduced by ``tests/blockability`` and the Sec. 5
benchmarks:

==========================================  =================================
LU without pivoting                         BLOCKABLE (IndexSetSplit)
LU with partial pivoting                    BLOCKABLE_WITH_COMMUTATIVITY
QR via Householder transformations          NOT_BLOCKABLE (block algorithm
                                            needs the T matrix — computation
                                            absent from the point algorithm)
QR via Givens rotations                     no known block form; still
                                            optimizable (split + inspect)
==========================================  =================================
"""

from repro.analysis.commutativity import commutativity_oracle
from repro.blockability.driver import BlockabilityResult, Verdict, classify

__all__ = ["BlockabilityResult", "Verdict", "classify", "commutativity_oracle"]
