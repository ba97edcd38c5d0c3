"""Differential verification of pipeline stages.

After each applied pass the verifier re-executes the transformed
procedure on small reproducible inputs and checks it two ways:

1. **cross-engine**: the compiled-codegen run and the tree-walking
   interpreter run of the *same* procedure must agree bit-for-bit — this
   catches codegen/interpreter divergence independently of any
   transformation;
2. **vs. reference**: the transformed procedure must leave the same
   bytes as the original point algorithm in every array the reference
   owns — no pass reassociates arithmetic, so there is no tolerance.

The first pass whose output fails either check raises
:class:`~repro.errors.VerificationError` naming that pass, which is the
whole point: a broken 6-pass derivation becomes "pass 4 broke it", not a
diff of final tables.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.errors import VerificationError
from repro.ir.stmt import Procedure
from repro.runtime.codegen import compile_procedure
from repro.runtime.interpreter import execute
from repro.runtime.validate import compare_arrays


class DifferentialVerifier:
    """Checks procedures against a fixed reference execution.

    The reference is executed once (codegen engine) and its final arrays
    cached; every :meth:`check` then costs two runs of the candidate
    (codegen + interpreter) at the small verify sizes.
    """

    def __init__(
        self,
        reference: Procedure,
        sizes: Mapping[str, int],
        seed: int = 0,
        arrays: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        self.reference = reference
        self.sizes = dict(sizes)
        self.seed = seed
        self.arrays = arrays
        self._ref_env: Optional[dict] = None
        self.checks_run = 0

    def _reference_env(self) -> dict:
        if self._ref_env is None:
            run = compile_procedure(self.reference)
            self._ref_env = run(self.sizes, arrays=self.arrays, seed=self.seed)
        return self._ref_env

    def check(self, proc: Procedure, label: str) -> dict:
        """Verify ``proc``; returns a JSON-able summary or raises
        :class:`VerificationError` naming ``label`` as the breaking pass."""
        self.checks_run += 1
        try:
            env_cg = compile_procedure(proc)(self.sizes, arrays=self.arrays, seed=self.seed)
            env_it = execute(proc, self.sizes, arrays=self.arrays, seed=self.seed)
        except Exception as e:
            raise VerificationError(f"pass {label!r}: execution failed: {e}") from e

        proc_arrays = [a.name for a in proc.arrays]
        for name in proc_arrays:
            problem = compare_arrays(env_it[name], env_cg[name], name)
            if problem:
                raise VerificationError(
                    f"pass {label!r}: codegen and interpreter disagree — {problem}"
                )

        ref_env = self._reference_env()
        shared = [
            a.name
            for a in self.reference.arrays
            if any(b.name == a.name for b in proc.arrays)
        ]
        if not shared:
            raise VerificationError(
                f"pass {label!r}: no arrays shared with the reference"
            )
        for name in shared:
            problem = compare_arrays(ref_env[name], env_cg[name], name)
            if problem:
                raise VerificationError(
                    f"pass {label!r}: diverges from reference — {problem}"
                )
        return {
            "sizes": self.sizes,
            "engines": ["codegen", "interp"],
            "arrays": shared,
            "ok": True,
        }
