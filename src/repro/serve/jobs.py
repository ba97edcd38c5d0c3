"""Job vocabulary: specs, store keys, and the worker-side executor.

A :class:`JobSpec` names one unit of work the pool can run:

``derive``
    run a workload's pass pipeline (optionally under the
    :mod:`repro.check` legality gate) and return the derived IR's
    pretty text + fingerprint;
``check``
    the full static-check stack (IR verification, blockability lint,
    checked re-derivation) with diagnostic counts and lint verdicts;
``execute``
    derive *and numerically execute*: differential interp-vs-codegen
    verification on the workload's verify sizes after every applied
    pass;
``table``
    build one ``bench.report`` table (the unit of
    ``python -m repro report --workers N``);
``cell``
    one experiment-matrix cell (the unit of ``python -m repro matrix
    run``): derive the workload under the cell's recipe and simulate
    both the point and derived variants through the cell's cache
    geometry at its problem size / blocking factor — one row of a
    :mod:`repro.matrix` sweep;
``probe``
    a test-only kind whose ``options["action"]`` makes it succeed,
    sleep, raise, or kill its own worker — the fault-injection tests
    drive the retry/timeout machinery with it.

:func:`job_key` maps a spec to its artifact-store key — ``(kind, input
IR fingerprint, resolved pass recipe with options, context facts)``;
the store adds the schema version.  Two specs with the same key are the
same computation: the pool coalesces them in flight and the store
short-circuits them across processes.

Results are **plain JSON-serializable dicts**, so they cross process
boundaries, live in the store, and embed in job rows
(:meth:`JobOutcome.to_dict <repro.serve.pool.JobOutcome.to_dict>`)
without translation.

Error discipline: :class:`~repro.errors.ReproError` subclasses
(``CheckError``, ``VerificationError``, ``PipelineError``...) are
*deterministic compiler verdicts* — the pool fails such a job without
retrying.  Anything else (a crashed worker, a transient exception) is
retryable per the pool's policy.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.artifacts.shape import check, nullable
from repro.errors import PipelineError, ReproError
from repro.obs import core as _obs

#: exceptions that mean "same input will fail the same way" — never retried
TERMINAL_ERRORS = (ReproError,)

#: kinds a command line may ask for; ``table`` and ``probe`` are internal
SUBMIT_KINDS = ("derive", "check", "execute", "cell")
_KINDS = SUBMIT_KINDS + ("table", "probe")


@dataclass(frozen=True)
class JobSpec:
    """One unit of work; picklable, JSON round-trippable."""

    kind: str = "derive"
    workload: str = ""
    passes: Optional[tuple] = None  # None = the workload's default pipeline
    options: dict = field(default_factory=dict)  # unroll/factor/probe action...
    check: bool = False
    timeout_s: float = 120.0
    max_retries: Optional[int] = None  # None = the pool's default
    use_store: bool = True
    label: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise PipelineError(f"unknown job kind {self.kind!r} (known: {_KINDS})")
        if self.passes is not None and not isinstance(self.passes, tuple):
            object.__setattr__(self, "passes", tuple(self.passes))

    @property
    def display(self) -> str:
        if self.label:
            return self.label
        tail = f":{','.join(self.passes)}" if self.passes else ""
        return f"{self.kind}:{self.workload or '-'}{tail}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "workload": self.workload,
            "passes": list(self.passes) if self.passes is not None else None,
            "options": dict(self.options),
            "check": self.check,
            "timeout_s": self.timeout_s,
            "max_retries": self.max_retries,
            "use_store": self.use_store,
            "label": self.label,
        }

    @staticmethod
    def from_dict(doc) -> "JobSpec":
        """The spec a JSON document describes.  Total: any JSON value is
        either a spec or a :class:`~repro.errors.PipelineError` naming
        every problem — batch files and daemon requests are outside
        input.  Omitted and ``null`` fields take their defaults."""
        if not isinstance(doc, dict):
            raise PipelineError(f"job spec must be an object, got {type(doc).__name__}")
        unknown = set(doc) - set(SPEC_SHAPE)
        if unknown:
            raise PipelineError(f"unknown job spec field(s): {sorted(unknown)}")
        fields = {k: v for k, v in doc.items() if v is not None}
        if isinstance(fields.get("passes"), str):
            fields["passes"] = [
                p.strip() for p in fields["passes"].split(",") if p.strip()
            ]
        problems = check(fields, SPEC_SHAPE, "job")
        if problems:
            raise PipelineError(f"bad job spec: {'; '.join(problems)}")
        for value in fields.get("options", {}).values():
            _scalar(value)
        return JobSpec(**fields)


#: a job spec as JSON (:meth:`JobSpec.from_dict`); every field is optional
#: and ``passes`` may also arrive as one comma-separated string
SPEC_SHAPE = {
    "kind": nullable(str),
    "workload": nullable(str),
    "passes": nullable([str]),
    "options": nullable(dict),
    "check": nullable(bool),
    "timeout_s": nullable(float),
    "max_retries": nullable(int),
    "use_store": nullable(bool),
    "label": nullable(str),
}


# ---------------------------------------------------------------------------
# store keys
# ---------------------------------------------------------------------------

def job_key(spec: JobSpec) -> tuple:
    """The artifact-store / dedup key of ``spec``.

    Workload-bearing kinds key on the *content* of the computation: the
    input procedure's structural fingerprint, the fully resolved pass
    recipe (names + options), and the assumption-context facts — not on
    the workload's name alone, so editing an algorithm builder or a
    default binding invalidates exactly the affected artifacts.

    Built once per spec object and remembered on it (specs are frozen):
    whoever keys a spec first — the daemon at admission, otherwise
    :meth:`WorkerPool.submit <repro.serve.pool.WorkerPool.submit>` —
    pays for the IR build, and it raises there or never.
    """
    key = spec.__dict__.get("_key")
    if key is None:
        key = spec.__dict__["_key"] = _build_key(spec)
    return key


def _build_key(spec: JobSpec) -> tuple:
    base: tuple = (spec.kind,)
    if spec.kind in ("probe", "table"):
        return base + (
            spec.workload,
            tuple(sorted((str(k), _scalar(v)) for k, v in spec.options.items())),
        )
    if spec.kind == "cell":
        # cell keys fold the cache-geometry facts in next to the usual
        # (fingerprint, recipe, context) triple: two cells differing only
        # in geometry must never collide onto one cached artifact
        from repro.matrix.cell import cell_key

        return base + cell_key(spec)
    from repro.ir.fingerprint import ir_fingerprint
    from repro.pipeline.workloads import get_workload
    from repro.serve.store import facts_component

    workload = get_workload(spec.workload)
    unroll = spec.options.get("unroll")
    factor = spec.options.get("factor")
    specs = workload.resolve_specs(
        list(spec.passes) if spec.passes is not None else None,
        unroll=unroll,
        factor=factor,
    )
    recipe = tuple(
        (name, tuple(sorted((str(k), _scalar(v)) for k, v in options.items())))
        for name, options in specs
    )
    return base + (
        ir_fingerprint(workload.build()),
        recipe,
        facts_component(workload.context(unroll)),
        bool(spec.check),
    )


def _scalar(v):
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    raise PipelineError(
        f"job option values must be JSON scalars, got {type(v).__name__}"
    )


# ---------------------------------------------------------------------------
# worker-side execution
# ---------------------------------------------------------------------------

def execute_job(spec: JobSpec) -> dict:
    """Run ``spec`` to completion in this process; returns the result dict.

    Raises :data:`TERMINAL_ERRORS` for deterministic failures (the pool
    reports ``failed`` without retrying) and anything else for
    retryable ones.
    """
    t0 = time.perf_counter()
    fn = _EXECUTORS[spec.kind]
    # the job envelope span: when the worker observes itself, this is the
    # root every pass/interpret/trace span nests under in its lane
    with _obs.span(f"job:{spec.display}", cat="serve.worker", kind=spec.kind):
        result = fn(spec)
    result.setdefault("kind", spec.kind)
    result["elapsed_s"] = round(time.perf_counter() - t0, 4)
    return result


def _run_derive(spec: JobSpec) -> dict:
    """``derive`` and ``execute``: one derivation; ``execute`` adds
    differential execution — every applied pass's output is interpreted
    and compared against the reference run."""
    from repro.ir.fingerprint import ir_fingerprint
    from repro.ir.pretty import to_fortran
    from repro.pipeline import derive
    from repro.pipeline.cache import AnalysisCache

    execute = spec.kind == "execute"
    result = derive(
        spec.workload,
        passes=list(spec.passes) if spec.passes is not None else None,
        unroll=spec.options.get("unroll"),
        factor=spec.options.get("factor"),
        cache=AnalysisCache(),
        check=spec.check,
        verify=execute,
    )
    out = {
        "workload": result.trace["algorithm"],
        "passes": [s.name for s in result.spans],
        "statuses": [s.status for s in result.spans],
        "pass_executions": sum(1 for s in result.spans if not s.cached),
        "fingerprint": ir_fingerprint(result.procedure),
        "ir": to_fortran(result.procedure),
    }
    if execute:
        out["verified"] = all(
            (s.verify or {}).get("ok", False)
            for s in result.spans
            if s.status == "applied"
        )
    elif spec.check:
        out["check_diagnostics"] = len(result.check_diagnostics)
    return out


def _run_check(spec: JobSpec) -> dict:
    from repro.check import audit_workload, errors_in
    from repro.check.diagnostics import Severity

    diagnostics, verdicts = audit_workload(spec.workload)
    return {
        "workload": spec.workload,
        "diagnostics": len(diagnostics),
        "errors": len(errors_in(diagnostics)),
        "warnings": sum(1 for d in diagnostics if d.severity == Severity.WARNING),
        "verdicts": [
            {"loop": res.loop_var, "verdict": res.verdict, "reason": res.reason}
            for res in verdicts
        ],
    }


def _run_table(spec: JobSpec) -> dict:
    """Build one experiment table; ``workload`` is the table name."""
    from repro.bench.report import select_builders

    matches = select_builders(_table_scale(spec), only=spec.workload)
    if len(matches) != 1:
        raise PipelineError(
            f"table spec {spec.workload!r} matches {len(matches)} tables, want 1"
        )
    name, build = matches[0]
    table = build()
    return {
        "table": name,
        "title": table.title,
        "paper_ref": table.paper_ref,
        "machine": table.machine,
        "columns": list(table.columns),
        "rows": [dict(r) for r in table.rows],
        "notes": list(table.notes),
    }


def _table_scale(spec: JobSpec) -> int:
    from repro.bench import experiments

    return int(spec.options.get("scale", experiments.SCALE))


def _run_probe(spec: JobSpec) -> dict:
    """Fault-injection hook: behave per ``options["action"]``."""
    action = spec.options.get("action", "ok")
    seconds = float(spec.options.get("seconds", 0.0))
    if seconds:
        time.sleep(seconds)
    if action == "ok":
        return {"probe": spec.options.get("value", "ok"), "pid": os.getpid()}
    if action == "raise":
        raise RuntimeError(spec.options.get("message", "probe raised"))
    if action == "terminal":
        raise PipelineError(spec.options.get("message", "probe terminal failure"))
    if action == "flaky":
        # fails until its flag file exists — each attempt plants the flag,
        # so retry N succeeds; the "retried" status tests ride on this
        flag = spec.options["flag_file"]
        if not os.path.exists(flag):
            with open(flag, "w", encoding="utf-8") as fh:
                fh.write("attempted\n")
            raise RuntimeError("probe flaky failure (flag planted)")
        return {"probe": "recovered", "pid": os.getpid()}
    if action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)  # simulate a crashed worker
        raise RuntimeError("unreachable")  # pragma: no cover
    if action == "hang":
        time.sleep(float(spec.options.get("hang_s", 3600.0)))
        return {"probe": "woke", "pid": os.getpid()}
    raise PipelineError(f"unknown probe action {action!r}")


def _run_cell(spec: JobSpec) -> dict:
    """One experiment-matrix cell; the heavy lifting lives in
    :mod:`repro.matrix.cell` so the job vocabulary stays thin."""
    from repro.matrix.cell import run_cell

    return run_cell(spec.workload, spec.options)


_EXECUTORS = {
    "derive": _run_derive,
    "check": _run_check,
    "execute": _run_derive,
    "table": _run_table,
    "cell": _run_cell,
    "probe": _run_probe,
}


def result_fingerprint(value: Optional[dict]) -> Optional[str]:
    """The derived-IR fingerprint carried by a result, if any."""
    if isinstance(value, dict):
        fp = value.get("fingerprint")
        if isinstance(fp, str):
            return fp
    return None
