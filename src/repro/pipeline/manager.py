"""The pass manager: declarative pass lists over procedures.

``PassManager`` turns "call these transforms in this order with these
contexts" — previously hand-coded at every derivation site — into data:

.. code-block:: python

    mgr = PassManager(
        [PassSpec("block", {"loop": "K", "factor": "KS"})],
        ctx=Assumptions().assume_ge("N", 2),
        verifier=DifferentialVerifier(lu_point_ir(), {"N": 13, "KS": 4}),
    )
    result = mgr.run(lu_point_ir())
    result.procedure            # the derived Fig. 6 blocked algorithm
    result.spans[0].wall_s      # what it cost
    result.artifact("block")    # the BlockingReport

Per pass it records a :class:`SpanRecord` (status, wall time, IR
fingerprints and size delta, pass detail, verification summary); the
whole run serializes through :mod:`repro.pipeline.trace`.

Three behaviours worth knowing:

- **policy**: a pass whose precondition fails (or that raises
  :class:`TransformError`) is handled per ``on_infeasible`` —
  ``"skip"`` records the span and moves on, ``"stop"`` records and ends
  the run, ``"raise"`` raises :class:`PipelineError`;
- **memoization**: whole-pass outcomes are cached in the
  :class:`~repro.pipeline.cache.AnalysisCache` ``passes`` region keyed by
  (pass, options, input fingerprint, context facts) — rerunning a
  derivation on an equal procedure replays instantly, and the underlying
  dependence/feasibility/section queries are cached too.  A hit under
  ``check=True`` also replays the pass's legality and ``verify_ir``
  findings, counted but not re-derived, and IR sizes come from the
  fingerprint memo.  Passes with non-serializable options (callables)
  are never memoized;
- **context flow**: the manager owns the running :class:`Assumptions`;
  passes return ``ctx_facts`` (e.g. ``KS >= 2`` after symbolic strip
  mining) which are applied on both cache hits and misses, so a cached
  replay leaves the context exactly as a fresh run would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.errors import CheckError, PipelineError, TransformError, VerificationError
from repro.ir.pretty import to_fortran
from repro.ir.stmt import Procedure
from repro.obs import core as _obs
from repro.pipeline.cache import GLOBAL_CACHE, AnalysisCache, bounded_put, installed
from repro.pipeline.passes import get_pass
from repro.pipeline.trace import CHECK_FAILED, build_trace
from repro.pipeline.verify import DifferentialVerifier
from repro.symbolic.assume import Assumptions

_JSON_SCALARS = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class PassSpec:
    """One entry of a pass list: a registered pass name plus options."""

    name: str
    options: dict = field(default_factory=dict)

    @staticmethod
    def coerce(spec: Union["PassSpec", str, tuple]) -> "PassSpec":
        if isinstance(spec, PassSpec):
            return spec
        if isinstance(spec, str):
            return PassSpec(spec)
        name, options = spec
        return PassSpec(name, dict(options))


@dataclass
class SpanRecord:
    """Everything recorded about one pass attempt."""

    index: int
    name: str
    status: str = "pending"  # then one of pipeline.trace's _STATUSES
    wall_s: float = 0.0
    t_start: float = 0.0  # perf_counter at span open (obs export; not in trace)
    cached: bool = False
    input_fingerprint: str = ""
    output_fingerprint: str = ""
    ir_size_before: int = 0
    ir_size_after: int = 0
    detail: dict = field(default_factory=dict)
    verify: Optional[dict] = None
    error: Optional[str] = None
    snapshot: Optional[str] = None
    artifact: object = None  # rich pass payload; excluded from the trace


@dataclass
class PipelineResult:
    """A finished (or stopped) run."""

    procedure: Procedure
    spans: list[SpanRecord]
    ctx: Assumptions
    trace: dict
    stopped: bool = False
    #: diagnostics collected in ``check=True`` mode (repro.check Diagnostic)
    check_diagnostics: list = field(default_factory=list)

    def span(self, name: str) -> Optional[SpanRecord]:
        """First span for the pass called ``name``."""
        return next((s for s in self.spans if s.name == name), None)

    def artifact(self, name: str):
        s = self.span(name)
        return s.artifact if s is not None else None

    @property
    def applied(self) -> list[str]:
        return [s.name for s in self.spans if s.status == "applied"]


def _options_key(options: dict) -> Optional[tuple]:
    """Canonical hashable key of a pass's options, or None when any value
    is not a JSON scalar (callables, IR nodes: do not memoize)."""
    items = []
    for k in sorted(options):
        v = options[k]
        if not isinstance(v, _JSON_SCALARS):
            return None
        items.append((k, v))
    return tuple(items)


class PassManager:
    """Runs a pass list; see the module docstring."""

    def __init__(
        self,
        specs: Sequence[Union[PassSpec, str, tuple]],
        ctx: Optional[Assumptions] = None,
        on_infeasible: str = "skip",
        cache: Optional[AnalysisCache] = None,
        verifier: Optional[DifferentialVerifier] = None,
        trace_snapshots: bool = False,
        algorithm: str = "",
        check: bool = False,
    ) -> None:
        if on_infeasible not in ("skip", "stop", "raise"):
            raise PipelineError(f"bad on_infeasible {on_infeasible!r}")
        self.specs = [PassSpec.coerce(s) for s in specs]
        for spec in self.specs:
            get_pass(spec.name)  # fail fast on unknown names
        self.ctx = ctx if ctx is not None else Assumptions()
        self.on_infeasible = on_infeasible
        self.cache = cache if cache is not None else GLOBAL_CACHE
        self.verifier = verifier
        self.trace_snapshots = trace_snapshots
        self.algorithm = algorithm
        self.check = check

    # -----------------------------------------------------------------
    def run(self, proc: Procedure) -> PipelineResult:
        t_start = time.perf_counter()
        ctx = self.ctx.copy()
        spans: list[SpanRecord] = []
        current = proc
        stopped = False
        cache_before = {
            name: getattr(self.cache, name).stats() for name in self.cache.REGIONS
        }

        check_diags: list = []

        def finish() -> PipelineResult:
            elapsed = time.perf_counter() - t_start
            trace = build_trace(
                spans,
                algorithm=self.algorithm,
                procedure=proc.name,
                cache_stats=self.cache.stats(),
                verify_enabled=self.verifier is not None,
                elapsed_s=elapsed,
            )
            self._report_obs(proc, spans, t_start, elapsed, cache_before)
            return PipelineResult(
                current, spans, ctx, trace, stopped=stopped,
                check_diagnostics=check_diags,
            )

        pending: list = []  # this pass's check findings, for span.detail

        if self.check:
            from repro.check.diagnostics import counted, errors_in
            from repro.check.legality import postcheck, precheck_for_pipeline
            from repro.check.verifier import verify_ir

            def absorb(diags, where, span=None):
                """Collect diagnostics; error severity fails the run fast."""
                check_diags.extend(diags)
                errs = errors_in(diags)
                if not errs:
                    return
                if span is not None:
                    span.status = CHECK_FAILED
                    span.error = errs[0].message
                    span.detail = {
                        **span.detail,
                        "check": [d.to_dict() for d in pending],
                    }
                err = CheckError(
                    f"check failed ({where}): {errs[0].pretty()}", check_diags
                )
                err.result = finish()
                raise err

            # the input's findings are a function of (fingerprint, facts)
            vkey = (self.cache.fingerprint(proc), ctx.facts_key())
            found = self.cache.verified.get(vkey)
            if found is None:
                found = bounded_put(self.cache.verified, vkey, verify_ir(proc, ctx))
            else:
                counted(found)
            absorb(found, "input IR")

        with installed(self.cache):
            for index, spec in enumerate(self.specs):
                pdef = get_pass(spec.name)
                span = SpanRecord(index=index, name=spec.name)
                # until the pass applies, its output is its input
                span.input_fingerprint = self.cache.fingerprint(current)
                span.output_fingerprint = span.input_fingerprint
                span.ir_size_before = span.ir_size_after = self.cache.size(current)
                spans.append(span)
                t0 = span.t_start = time.perf_counter()

                failure = cause = None
                reason = pdef.precheck(current, ctx, spec.options)
                if reason is not None:
                    span.status = "infeasible"
                    span.detail = {"reason": reason}
                    failure = f"infeasible: {reason}"
                else:
                    okey = _options_key(spec.options)
                    memo_key, hit, entry = None, False, None
                    if okey is not None:
                        memo_key = (spec.name, okey, span.input_fingerprint, ctx.facts_key())
                        hit, entry = self.cache.passes.peek(memo_key)
                    # entry: [procedure, applied, detail, ctx_facts, artifact,
                    # (precheck, postcheck) findings once a checked run judged it]
                    judged = hit and entry[5] is not None
                    if self.check:
                        pending = pre = (
                            counted(entry[5][0]) if judged else
                            precheck_for_pipeline(spec.name, current, ctx, spec.options)
                        )
                        absorb(pre, f"pass {spec.name!r} legality precheck", span)
                    if hit:
                        span.cached = True
                    else:
                        try:
                            outcome = pdef.run(current, ctx, spec.options)
                        except TransformError as e:
                            span.status = "error"
                            span.error = str(e)
                            failure, cause = f"failed: {e}", e
                        else:
                            entry = [outcome.procedure, outcome.applied,
                                     outcome.detail, outcome.ctx_facts,
                                     outcome.artifact, None]
                            if memo_key is not None:
                                self.cache.passes.put(memo_key, entry)

                if failure is not None:
                    span.wall_s = time.perf_counter() - t0
                    if self.on_infeasible == "raise":
                        err = PipelineError(f"pass {spec.name!r} {failure}")
                        err.result = finish()
                        raise err from cause
                    if self.on_infeasible == "stop":
                        stopped = True
                        break
                    continue
                new, applied, detail, ctx_facts, artifact, findings = entry

                # context facts apply on hits and misses alike
                for kind, left, right in ctx_facts:
                    if kind == "ge":
                        ctx.assume_ge(left, right)
                    elif kind == "le":
                        ctx.assume_le(left, right)
                    else:  # pragma: no cover - passes only emit ge/le
                        raise PipelineError(f"unknown ctx fact kind {kind!r}")

                before_proc = current
                current = new
                span.status = "applied" if applied else "noop"
                span.detail = detail
                span.artifact = artifact
                span.output_fingerprint = self.cache.fingerprint(current)
                span.ir_size_after = self.cache.size(current)
                span.wall_s = time.perf_counter() - t0
                if self.trace_snapshots:
                    span.snapshot = to_fortran(current)

                if self.check:
                    if judged:
                        post = counted(findings[1])
                    elif applied:
                        post = postcheck(
                            spec.name, before_proc, current, ctx, spec.options
                        ) + verify_ir(current, ctx)
                    else:
                        post = []
                    pending = pre + post
                    absorb(post, f"pass {spec.name!r} postcheck", span)
                    entry[5] = (pre, post)
                    if pending:
                        span.detail = {
                            **span.detail,
                            "check": [d.to_dict() for d in pending],
                        }
                    span.wall_s = time.perf_counter() - t0

                if self.verifier is not None and span.status == "applied":
                    try:
                        span.verify = self.verifier.check(current, spec.name)
                    except VerificationError as e:
                        span.verify = {"ok": False, "error": str(e)}
                        e.result = finish()
                        raise

        return finish()

    def _report_obs(
        self,
        proc: Procedure,
        spans: list[SpanRecord],
        t_start: float,
        elapsed: float,
        cache_before: dict,
    ) -> None:
        """Mirror this run into the active :mod:`repro.obs` observer: one
        span per pass (and one for the whole run), plus analysis-cache
        hit/miss deltas as counters.  No-op when observation is disabled;
        the pipeline's own JSON trace is unaffected either way."""
        o = _obs.current()
        if o is None:
            return
        label = self.algorithm or proc.name
        o.event(
            f"pipeline:{label}", cat="pipeline", start=t_start, dur=elapsed,
            procedure=proc.name, passes=len(spans),
        )
        for s in spans:
            o.event(
                f"pass:{s.name}", cat="pipeline.pass", start=s.t_start,
                dur=s.wall_s, status=s.status, cached=s.cached, algorithm=label,
            )
            o.count(f"pipeline.pass.{s.status}")
        for name in self.cache.REGIONS:
            after = getattr(self.cache, name).stats()
            before = cache_before.get(name, {})
            for key in ("hits", "misses"):
                delta = after[key] - before.get(key, 0)
                if delta:
                    o.count(f"analysis_cache.{name}.{key}", delta)


def run_passes(
    proc: Procedure,
    specs: Sequence[Union[PassSpec, str, tuple]],
    ctx: Optional[Assumptions] = None,
    **kwargs,
) -> PipelineResult:
    """One-shot convenience: build a manager and run it."""
    return PassManager(specs, ctx=ctx, **kwargs).run(proc)
