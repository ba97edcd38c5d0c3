"""One experiment cell: derive under the recipe, simulate under the
geometry, report both variants.

A cell binds every factor: the workload, a **recipe** (``point`` = the
untransformed algorithm, ``default`` = the workload's registered
pipeline, or an explicit comma-separated pass list), a problem size
``n`` and blocking factor ``b`` (bound through
:meth:`~repro.pipeline.workloads.Workload.sizes_for`, never by editing
IR), and a cache geometry (built by
:func:`~repro.machine.model.machine_from_factors`).

:func:`run_cell` measures **two** variants through the same machine —
the point algorithm as the baseline and the recipe's output — so every
row carries its own speedup and miss-ratio pair and the analysis needs
no cross-row joins to answer "did blocking help *here*".

:func:`cell_key` is the store-key contribution consumed by
:func:`repro.serve.jobs.job_key`: ``(input-IR fingerprint, resolved
recipe, context facts, geometry facts, size facts)``.  Geometry
participates explicitly so two cells differing only in cache size / line
/ associativity / TLB can never collide onto one cached artifact.

Derivations inside a cell run against a per-process analysis cache
(worker processes persist across jobs), so a sweep that re-derives the
same symbolic pipeline at 20 different geometries pays for the
Fourier–Motzkin work once per worker, not once per cell.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import MatrixError
from repro.matrix.grid import DEFAULTS, FACTOR_ORDER, GEOMETRY_FACTORS

#: result-row fields filled from the simulation
RESULT_FIELDS = (
    "refs",
    "misses",
    "writebacks",
    "tlb_misses",
    "miss_ratio",
    "modeled_s",
    "base_refs",
    "base_misses",
    "base_miss_ratio",
    "base_modeled_s",
    "speedup",
    "fingerprint",
)

_ANALYSIS_CACHE = None


def _cache():
    """Per-process analysis cache (workers live across many cells)."""
    global _ANALYSIS_CACHE
    if _ANALYSIS_CACHE is None:
        from repro.pipeline.cache import AnalysisCache

        _ANALYSIS_CACHE = AnalysisCache()
    return _ANALYSIS_CACHE


def normalize_options(options: Mapping) -> dict:
    """Cell options with defaults applied and unknown keys rejected."""
    opts = dict(DEFAULTS)
    unknown = set(options) - (set(FACTOR_ORDER) - {"workload"})
    if unknown:
        raise MatrixError(f"unknown cell option(s) {sorted(unknown)}")
    opts.update(options)
    return opts


def resolve_recipe(recipe: str) -> Optional[list]:
    """``None`` = the workload's default pipeline, ``[]`` = the point
    algorithm (no passes), else the explicit pass-name list."""
    if recipe == "default":
        return None
    if recipe == "point":
        return []
    names = [s.strip() for s in recipe.split(",") if s.strip()]
    if not names:
        raise MatrixError(f"empty recipe {recipe!r}")
    return names


def cell_machine(opts: Mapping):
    from repro.machine.model import machine_from_factors

    return machine_from_factors(**{g: opts[g] for g in GEOMETRY_FACTORS})


def cell_key(spec) -> tuple:
    """The ``job_key`` tail for a ``cell`` spec (see module docstring)."""
    from repro.ir.fingerprint import ir_fingerprint
    from repro.pipeline.workloads import get_workload
    from repro.serve.store import facts_component

    opts = normalize_options(spec.options)
    workload = get_workload(spec.workload)
    names = resolve_recipe(opts["recipe"])
    specs = [] if names == [] else workload.resolve_specs(names)
    recipe = tuple(
        (name, tuple(sorted((str(k), v) for k, v in options.items())))
        for name, options in specs
    )
    geometry = tuple((g, opts[g]) for g in GEOMETRY_FACTORS)
    return (
        ir_fingerprint(workload.build()),
        recipe,
        facts_component(workload.context(None)),
        geometry,
        (("n", opts["n"]), ("b", opts["b"])),
    )


def run_cell(workload_name: str, options: Mapping) -> dict:
    """Execute one cell; returns the JSON-serializable result row.

    Raises :class:`~repro.errors.ReproError` subclasses for deterministic
    verdicts (bad geometry, unknown pass, infeasible derivation) — the
    pool fails such a cell without retrying.
    """
    from repro.bench.harness import measure
    from repro.ir.fingerprint import ir_fingerprint
    from repro.pipeline import derive
    from repro.pipeline.workloads import get_workload

    opts = normalize_options(options)
    workload = get_workload(workload_name)
    machine = cell_machine(opts)
    sizes = workload.sizes_for(opts["n"], opts["b"])

    point = workload.build()
    base = measure(point, sizes, machine)

    names = resolve_recipe(opts["recipe"])
    if names == []:
        proc, passes = point, []
        variant = base
    else:
        result = derive(workload_name, passes=names, cache=_cache())
        proc = result.procedure
        passes = [s.name for s in result.spans]
        variant = measure(proc, sizes, machine)

    row = {
        "workload": workload.name,
        "recipe": opts["recipe"],
        "n": opts["n"],
        "b": opts["b"],
        "machine": machine.name,
        "sizes": dict(sizes),
        "passes": passes,
        "fingerprint": ir_fingerprint(proc),
        "refs": variant.refs,
        "misses": variant.misses,
        "writebacks": variant.writebacks,
        "tlb_misses": variant.tlb_misses,
        "miss_ratio": variant.miss_ratio,
        "modeled_s": variant.modeled_seconds,
        "base_refs": base.refs,
        "base_misses": base.misses,
        "base_miss_ratio": base.miss_ratio,
        "base_modeled_s": base.modeled_seconds,
        "speedup": (
            base.modeled_seconds / variant.modeled_seconds
            if variant.modeled_seconds > 0
            else None
        ),
    }
    row.update({g: opts[g] for g in GEOMETRY_FACTORS})
    return row
