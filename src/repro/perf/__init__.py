"""The cross-run performance timeline (``repro.perf``).

Everything else in this repo observes **one run**: a pipeline trace, an
obs profile, a serve report, a matrix sweep.  This package is the axis
those artifacts were missing — *time across runs*.  Any registered
artifact kind with a ``flatten`` hook (:mod:`repro.artifacts.kinds`)
flattens (:mod:`repro.perf.ingest`) into named numeric metrics, lands
in the artifact store as a ``repro.perf.baseline/1`` document — the
same kind as a committed baseline file — and can then be diffed,
trended, and **gated** (:mod:`repro.perf.gate`): compared against a
recorded run or a committed baseline file, with the verdict as the exit
code so CI can refuse regressions.

::

    python -m repro perf record TRACE.json --label main
    python -m repro perf diff main latest --metrics 'pass:*'
    python -m repro perf trend pass:block.wall_s
    python -m repro perf gate TRACE.json --baseline benchmarks/\
perf_baseline.json --metrics 'pass:*.ir_size_after' --threshold 0
"""

from repro.perf.gate import BASELINE_SCHEMA, compare, diff, read_baseline
from repro.perf.ingest import flatten, load_artifact, record, runs, select

__all__ = ["BASELINE_SCHEMA", "compare", "diff", "flatten", "load_artifact",
           "read_baseline", "record", "runs", "select"]
