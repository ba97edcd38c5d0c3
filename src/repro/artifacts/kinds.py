"""Builtin artifact kinds — every schema the stack emits, in one table.

Imported lazily by the registry on its first query; each entry's
validator and flattener stay as ``"module:attr"`` references until a
caller actually touches that kind, so the registry itself is cheap to
import from any layer.

Adding a new artifact kind is one :func:`~repro.artifacts.registry.register`
call here (plus the id constant in the registry): validation via
``python -m repro artifacts validate``, ingestion via ``python -m
repro perf record``, and store-sink addressing all pick it up with no
further wiring.
"""

from __future__ import annotations

from repro.artifacts import registry as _r

_r.register(
    _r.PIPELINE_TRACE,
    validate="repro.pipeline.trace:validate_trace",
    flatten="repro.pipeline.trace:flatten_trace",
    description="per-pass pipeline trace (spans, fingerprints, cache stats)",
)
_r.register(
    _r.PIPELINE_BENCH,
    validate="repro.pipeline.bench:validate_bench",
    flatten="repro.pipeline.bench:flatten_bench",
    description="pipeline benchmark table (cold vs warm analysis cache)",
)
_r.register(
    _r.OBS_METRICS,
    validate="repro.obs.export:validate_metrics",
    flatten="repro.obs.export:flatten_metrics",
    description="observability profile (counters, histograms, attribution)",
)
_r.register(
    _r.OBS_SNAPSHOT,
    validate="repro.obs.snapshot:validate_snapshot",
    description="portable single-observer snapshot (cross-process merge unit)",
)
_r.register(
    _r.CHECK_REPORT,
    validate="repro.check.report:validate_report",
    flatten="repro.check.report:flatten_report",
    description="static-check report (diagnostics, rule catalogue, verdicts)",
)
_r.register(
    _r.SERVE_REPORT,
    validate="repro.serve.service:validate_report",
    flatten="repro.serve.service:flatten_report",
    description="serve batch report (per-job outcomes, pool and store stats)",
)
_r.register(
    _r.MATRIX_REPORT,
    validate="repro.matrix.report:validate_report",
    flatten="repro.matrix.report:flatten_report",
    description="experiment-matrix sweep report (rows, sensitivity analysis)",
)
_r.register(
    _r.PERF_GATE,
    validate="repro.perf.gate:validate_gate",
    description="perf regression-gate verdict (per-metric rows, exit code)",
)
_r.register(
    _r.PAR_REPORT,
    validate="repro.par.report:validate_report",
    flatten="repro.par.report:flatten_report",
    description="loop-parallelism report (verdicts, sanitizer conflicts)",
)
_r.register(
    _r.DAEMON_STATUS,
    validate="repro.daemon.status:validate_status",
    flatten="repro.daemon.status:flatten_status",
    description="compile-daemon status snapshot (admission, queue, pool, "
    "store, latency)",
)
_r.register(
    _r.SERVE_LOAD,
    validate="repro.load.report:validate_report",
    flatten="repro.load.report:flatten_report",
    description="open-loop load-generator report (ramp steps, latency "
    "quantiles, saturation knee)",
)
_r.register(
    _r.SERVE_STORE,
    validate="repro.serve.service:validate_store_ops",
    flatten="repro.serve.service:flatten_store_ops",
    description="artifact-store maintenance record (stats / gc outcome)",
)
_r.register(
    _r.PERF_BASELINE,
    validate="repro.perf.gate:validate_baseline",
    flatten="repro.perf.gate:flatten_baseline",
    description="committable flat-metric baseline for the perf gate",
)
