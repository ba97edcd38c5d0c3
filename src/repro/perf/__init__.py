"""The cross-run performance timeline (``repro.perf``).

Everything else in this repo observes **one run**: a pipeline trace, an
obs profile, a serve report, a matrix sweep.  This package is the axis
those artifacts were missing — *time across runs*.  Any registered
artifact kind with a ``flatten`` hook (:mod:`repro.artifacts.kinds`)
flattens (:mod:`repro.perf.ingest`) into named numeric metrics,
lands in a sqlite history (:mod:`repro.perf.db` — ``perf.db`` next to
the artifact store), and can then be diffed, trended, and **gated**
(:mod:`repro.perf.gate`): compared against a recorded run or a committed
baseline file, with the verdict as the exit code so CI can refuse
regressions.

::

    python -m repro perf record TRACE.json --label main
    python -m repro perf diff main latest --metrics 'pass:*'
    python -m repro perf trend pass:block.wall_s
    python -m repro perf gate TRACE.json --baseline-file benchmarks/\
perf_baseline.json --metrics 'pass:*.ir_size_after' --threshold 0
"""

from repro.perf.db import PerfDB
from repro.perf.gate import (
    BASELINE_SCHEMA,
    EXIT_NO_BASELINE,
    EXIT_OK,
    EXIT_REGRESSED,
    EXIT_USAGE,
    baseline_doc,
    compare,
    diff,
    read_baseline,
)
from repro.perf.ingest import (
    artifact_digest,
    detect_schema,
    flatten,
    load_artifact,
)

__all__ = [
    "PerfDB",
    "BASELINE_SCHEMA",
    "EXIT_NO_BASELINE",
    "EXIT_OK",
    "EXIT_REGRESSED",
    "EXIT_USAGE",
    "baseline_doc",
    "compare",
    "diff",
    "read_baseline",
    "artifact_digest",
    "detect_schema",
    "flatten",
    "load_artifact",
]
