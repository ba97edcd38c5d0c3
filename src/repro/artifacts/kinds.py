"""Builtin artifact kinds — every schema the stack emits, in one table.

Imported lazily by the registry on its first query; each entry's shape,
invariants and flattener stay as ``"module:attr"`` references until a
caller actually touches that kind, so the registry itself is cheap to
import from any layer.

Adding a new artifact kind is one :func:`~repro.artifacts.registry.register`
call here (plus the id constant in the registry, and a ``SHAPE`` literal
beside the payload's builder): validation via
``python -m repro artifacts validate``, ingestion via ``python -m
repro perf record``, and store-sink addressing all pick it up with no
further wiring.
"""

from __future__ import annotations

from repro.artifacts import registry as _r

_r.register(
    _r.PIPELINE_TRACE,
    shape="repro.pipeline.trace:SHAPE",
    invariants="repro.pipeline.trace:invariants",
    flatten="repro.pipeline.trace:flatten_trace",
    description="per-pass pipeline trace (spans, fingerprints, cache stats)",
)
_r.register(
    _r.PIPELINE_BENCH,
    shape="repro.pipeline.bench:SHAPE",
    invariants="repro.pipeline.bench:invariants",
    flatten="repro.pipeline.bench:flatten_bench",
    description="pipeline benchmark table (cold vs warm analysis cache)",
)
_r.register(
    _r.OBS_METRICS,
    shape="repro.obs.export:SHAPE",
    invariants="repro.obs.export:invariants",
    flatten="repro.obs.export:flatten_metrics",
    description="observability profile (counters, histograms, attribution)",
)
_r.register(
    _r.OBS_SNAPSHOT,
    shape="repro.obs.snapshot:SHAPE",
    description="portable single-observer snapshot (cross-process merge unit)",
)
_r.register(
    _r.CHECK_REPORT,
    shape="repro.check.report:SHAPE",
    invariants="repro.check.report:invariants",
    flatten="repro.check.report:flatten_report",
    description="static-check report (diagnostics, rule catalogue, verdicts)",
)
_r.register(
    _r.MATRIX_REPORT,
    shape="repro.matrix.report:SHAPE",
    invariants="repro.matrix.report:invariants",
    flatten="repro.matrix.report:flatten_report",
    description="experiment-matrix sweep report (rows, sensitivity analysis)",
)
_r.register(
    _r.PERF_GATE,
    shape="repro.perf.gate:SHAPE",
    invariants="repro.perf.gate:invariants",
    description="perf regression-gate verdict (per-metric rows, exit code)",
)
_r.register(
    _r.PAR_REPORT,
    shape="repro.par.report:SHAPE",
    invariants="repro.par.report:invariants",
    flatten="repro.par.report:flatten_report",
    description="loop-parallelism report (verdicts, sanitizer conflicts)",
)
_r.register(
    _r.DAEMON_STATUS,
    shape="repro.daemon.status:SHAPE",
    invariants="repro.daemon.status:invariants",
    flatten="repro.daemon.status:flatten_status",
    description="compile-daemon status snapshot (admission, queue, pool, "
    "store, latency)",
)
_r.register(
    _r.SERVE_LOAD,
    shape="repro.load.report:SHAPE",
    invariants="repro.load.report:invariants",
    flatten="repro.load.report:flatten_report",
    description="open-loop load-generator report (ramp steps, latency "
    "quantiles, saturation knee)",
)
_r.register(
    _r.SERVE_STORE,
    shape="repro.serve.store:STORE_SHAPE",
    invariants="repro.serve.store:store_invariants",
    flatten="repro.serve.store:flatten_store_ops",
    description="artifact-store maintenance record (stats / gc outcome)",
)
_r.register(
    _r.PERF_BASELINE,
    shape="repro.perf.gate:BASELINE_SHAPE",
    flatten="repro.perf.gate:flatten_baseline",
    description="committable flat-metric baseline for the perf gate",
)
