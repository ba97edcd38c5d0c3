"""Semantic-equivalence checking between point and transformed procedures.

Every transformation in this package must preserve observable behaviour:
given identical inputs, the final contents of every array must be the
same bytes.  No transformation reassociates arithmetic: strip mining,
interchange, distribution, index-set splitting, IF-inspection, scalar
replacement and expansion only re-sequence independent iterations, and
Sec. 5.2's commutativity moves whole-row swaps, which are pure data
movement, so each element sees the same operations in the same order.
Equality is therefore bitwise — a NaN equals the NaN it came from, and
``-0.0`` is not ``+0.0``.
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


def compare_arrays(ref: np.ndarray, new: np.ndarray, name: str) -> Optional[str]:
    """How ``new`` differs from ``ref`` in dtype, shape or bytes, or
    ``None`` when it does not."""
    if ref.dtype != new.dtype:
        return f"{name}: dtype {ref.dtype} != {new.dtype}"
    if ref.shape != new.shape:
        return f"{name}: shape {ref.shape} != {new.shape}"
    if ref.tobytes() == new.tobytes():
        return None
    elements = ref.shape + (ref.dtype.itemsize,)
    differ = np.any(
        np.ascontiguousarray(ref).view(np.uint8).reshape(elements)
        != np.ascontiguousarray(new).view(np.uint8).reshape(elements),
        axis=-1,
    )
    first = tuple(np.argwhere(differ)[0])
    return (
        f"{name}: {int(differ.sum())} elements differ bitwise; first at "
        f"{tuple(int(i) + 1 for i in first)}: {ref[first]} vs {new[first]}"
    )


def assert_equivalent(
    reference: Procedure,
    transformed: Procedure,
    sizes: Mapping[str, int],
    seed: int = 0,
    arrays: Optional[Mapping[str, np.ndarray]] = None,
) -> None:
    """Raise AssertionError unless the two procedures leave the same bytes
    in every array.

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
        problem = compare_arrays(env_ref[name], env_new[name], name)
        if problem:
            raise AssertionError(problem)
