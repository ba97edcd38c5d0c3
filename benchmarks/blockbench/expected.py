"""``expected.json``: the pinned outputs, and the only way to rewrite them.

Pinned at every seed (the compiler's inputs are the programs, not the
seed): the IR fingerprints of the six derived programs, the seven lint
verdicts, and the ``AnalysisCache`` miss counts of the two LU derivations.
Pinned at seed 0 only: the ``CacheStats`` of the eight ``simulate`` traces,
because the guarded matmul's counts follow the seeded ``B``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.check import lint_blockability
from repro.pipeline import get_workload

from spans import Recorder
from workloads import KERNELS, WORKLOADS, Run


def collect() -> dict:
    """One rep of every compiler and simulator workload at seed 0."""
    def one_rep(name: str, quick: bool = False):
        workload = WORKLOADS[name]
        run = Run(Recorder(enabled=False))
        out = workload.rep(workload.setup(0, quick, None), run)
        if run.failures:
            raise RuntimeError(f"{name}: {run.failures}")
        return out

    block, kernels = one_rep("derive_block"), one_rep("derive_kernels")
    verdicts = dict(block["verdicts"])
    for k in KERNELS:
        w = get_workload(k)
        verdicts.setdefault(k, [[r.loop_var, r.verdict]
                                for r in lint_blockability(w.build(), w.context(None))])
    return {
        "fingerprints": {**block["fingerprints"], **kernels["fingerprints"]},
        "verdicts": verdicts,
        "cache_misses": block["cache_misses"],
        "simulate_seed0": {"full": one_rep("simulate")["stats"],
                           "quick": one_rep("simulate", quick=True)["stats"]},
    }


def update_expected(path: Path) -> int:
    """Rewrite ``path`` — only if two consecutive collections agree exactly."""
    first, second = collect(), collect()
    if first != second:
        print("error: two consecutive runs disagree; expected.json not written",
              file=sys.stderr)
        return 1
    path.write_text(json.dumps(first, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0
