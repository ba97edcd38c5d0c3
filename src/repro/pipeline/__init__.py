"""The instrumented, cached pass-pipeline subsystem (``repro.pipeline``).

Sits between :mod:`repro.transform` (the individual source-to-source
transformations) and :mod:`repro.blockability` / :mod:`repro.bench` (the
study drivers): pass sequences that used to be hand-coded per derivation
are declared as data, run through a :class:`PassManager`, and come back
with per-pass timing, IR deltas, analysis-cache statistics, JSON traces,
and optional differential verification.

Quick use::

    from repro.pipeline import derive
    result = derive("lu_nopivot")            # the workload's default passes
    result.procedure                          # the derived Fig. 6 algorithm

    from repro.pipeline import PassManager, PassSpec
    mgr = PassManager([PassSpec("block", {"loop": "K", "factor": "KS"})],
                      ctx=Assumptions().assume_ge("N", 2))
    mgr.run(lu_point_ir())

Command line: ``python -m repro pipeline --algorithm lu_nopivot
--passes split,block,jam --trace out.json --verify``.
"""

from __future__ import annotations

from typing import Optional

from repro.pipeline.cache import GLOBAL_CACHE, AnalysisCache, installed
from repro.pipeline.manager import (
    PassManager,
    PassSpec,
    PipelineResult,
    SpanRecord,
    run_passes,
)
from repro.pipeline.passes import PassInfo, PassOutcome, available_passes, get_pass
from repro.pipeline.trace import build_trace
from repro.pipeline.verify import DifferentialVerifier
from repro.pipeline.workloads import Workload, available_workloads, get_workload

__all__ = [
    "AnalysisCache",
    "DifferentialVerifier",
    "GLOBAL_CACHE",
    "PassInfo",
    "PassManager",
    "PassOutcome",
    "PassSpec",
    "PipelineResult",
    "SpanRecord",
    "Workload",
    "available_passes",
    "available_workloads",
    "build_trace",
    "derive",
    "get_pass",
    "get_workload",
    "installed",
    "run_passes",
]


def derive(
    algorithm: str,
    passes: Optional[list] = None,
    unroll: Optional[int] = None,
    factor: Optional[str] = None,
    verify: bool = False,
    cache: Optional[AnalysisCache] = None,
    on_infeasible: str = "skip",
    check: bool = False,
) -> PipelineResult:
    """Run a named workload through its (or the given) pass list.

    This is the entry point the experiment layer uses: it reproduces the
    historical hand-coded derivations exactly (same contexts, same
    transform calls in the same order) while adding spans, caching, and
    optional differential verification.
    """
    workload = get_workload(algorithm)
    proc = workload.build()
    verifier = (
        DifferentialVerifier(proc, workload.verify_sizes, exact=workload.exact)
        if verify
        else None
    )
    manager = PassManager(
        workload.resolve_specs(passes, unroll=unroll, factor=factor),
        ctx=workload.context(unroll),
        on_infeasible=on_infeasible,
        cache=cache,
        verifier=verifier,
        algorithm=workload.name,
        check=check,
    )
    return manager.run(proc)
