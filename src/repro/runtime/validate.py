"""Semantic-equivalence checking between point and transformed procedures.

Every transformation in this package must preserve observable behaviour:
given identical inputs, the final contents of every array must match.  Two
tolerance regimes exist:

- ``exact=True``: bit-identical results.  Reordering transformations that
  only re-sequence *independent* iterations (strip mining, interchange of
  fully permutable loops, distribution, index-set splitting, IF-inspection,
  scalar replacement) change nothing about each element's computation, so
  they must be exact.
- ``exact=False``: floating-point-tolerant comparison for transformations
  that reassociate or commute operations (the commutativity-based block LU
  with partial pivoting performs the same column updates in a different
  order relative to row interchanges; the *values* are mathematically equal
  but may differ in the last ulps).
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.ir.stmt import Procedure
from repro.runtime.codegen import compile_procedure


def run_on_random(
    proc: Procedure,
    sizes: Mapping[str, int],
    seed: int = 0,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> dict:
    """Execute ``proc`` (compiled) on reproducible random inputs; returns
    the final environment."""
    return compile_procedure(proc)(sizes, arrays=arrays, seed=seed)


def compare_arrays(
    ref: np.ndarray, new: np.ndarray, name: str, exact: bool, rtol: float, atol: float
) -> Optional[str]:
    """How ``new`` differs from ``ref`` under the tolerance regime, or
    ``None`` when it does not."""
    if ref.shape != new.shape:
        return f"{name}: shape {ref.shape} != {new.shape}"
    if exact:
        if not np.array_equal(ref, new):
            bad = int(np.sum(ref != new))
            first = tuple(np.argwhere(ref != new)[0])
            return (
                f"{name}: {bad} elements differ (exact); first at "
                f"{tuple(int(i) + 1 for i in first)}: {ref[first]} vs {new[first]}"
            )
    elif not np.allclose(ref, new, rtol=rtol, atol=atol):
        err = float(np.max(np.abs(ref - new)))
        return f"{name}: max abs diff {err:.3e} exceeds tolerance"
    return None


def assert_equivalent(
    reference: Procedure,
    transformed: Procedure,
    sizes: Mapping[str, int],
    seed: int = 0,
    exact: bool = True,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Raise AssertionError unless the two procedures agree on all arrays.

    Arrays present in only one procedure (compiler-introduced temporaries
    like IF-inspection's KLB/KUB or scalar-expansion workspace) are ignored;
    the contract is about the arrays the *reference* owns.
    """
    env_ref = run_on_random(reference, sizes, seed=seed, arrays=arrays)
    env_new = run_on_random(transformed, sizes, seed=seed, arrays=arrays)
    shared = [a.name for a in reference.arrays if any(b.name == a.name for b in transformed.arrays)]
    if not shared:
        raise AssertionError("procedures share no arrays; nothing to compare")
    for name in shared:
        problem = compare_arrays(env_ref[name], env_new[name], name, exact, rtol, atol)
        if problem:
            raise AssertionError(problem)
