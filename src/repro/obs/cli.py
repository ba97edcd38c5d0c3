"""The ``obs`` command: ``python -m repro obs``.

Runs a named pipeline workload end to end under observation — the
derivation through the pass manager, then the derived procedure through
the cache/TLB simulator with miss attribution on — and
renders a text profile: top loops by misses, top statements, top arrays,
top passes by wall time, and analysis-cache efficiency.

Examples::

    python -m repro obs --list
    python -m repro obs lu_nopivot
    python -m repro obs lu_nopivot --chrome-trace t.json --out m.json
    python -m repro obs conv --passes split,jam,scalars --sizes N1=48,N2=36,N3=40
    python -m repro obs givens --scale 2 --top 5

The Chrome trace loads directly in Perfetto (https://ui.perfetto.dev →
"Open trace file"); the ``--out`` JSON follows the ``repro.obs/1`` schema
(:mod:`repro.obs.export`) and is written enveloped and validated.  With
``--store`` the enveloped profile also lands in the content-addressed
artifact store (``repro artifacts ls|cat`` see it); every invocation
profiles afresh.  Exit status: 0 on success, 1 when the emitted metrics
fail validation, 2 for usage errors.
"""

from __future__ import annotations

import sys

from repro import cli
from repro.artifacts import envelope, publish, validate_document, write_file
from repro.errors import PipelineError
from repro.machine.model import scaled_machine
from repro.machine.tracer import trace_procedure
from repro.obs import core as obs_core
from repro.obs import export
from repro.pipeline.cache import AnalysisCache
from repro.pipeline.manager import PassManager
from repro.pipeline.workloads import available_workloads, get_workload


def register(sub) -> None:
    p = sub.add_parser(
        "obs",
        description="profile a pipeline workload: spans, metrics, per-loop misses",
    )
    p.add_argument("workload", nargs="?", help="workload name (see --list)")
    cli.passes_flag(p)
    cli.sizes_flag(p)
    p.add_argument(
        "--scale", type=int, default=4,
        help="machine geometry scale for the simulated run (default 4)",
    )
    p.add_argument("--seed", type=int, default=0, help="array-data seed")
    p.add_argument(
        "--top", type=int, default=10, help="rows per profile section (default 10)"
    )
    cli.observe_flags(p, obs=False)
    cli.output_flags(p, out="repro.obs/1 metrics profile")
    p.add_argument("--list", action="store_true", help="list workloads and exit")
    cli.store_flags(p, store="publish the metrics profile to the "
                    "content-addressed artifact store")
    p.set_defaults(fn=run)


def _fmt_row(name: str, row: dict, total_misses: int) -> str:
    share = row["misses"] / total_misses if total_misses else 0.0
    return (
        f"  {name:<40} {row['misses']:>10} misses ({share:6.1%})"
        f"  {row['accesses']:>10} refs  {row['writebacks']:>7} wb"
        f"  {row['tlb_misses']:>7} tlb"
    )


def _top(view: dict, k: int) -> list[tuple[str, dict]]:
    return sorted(view.items(), key=lambda kv: -kv[1]["misses"])[:k]


def _par_verdicts(result) -> dict[str, str]:
    """Attribution loop-path key ("K/I/J") -> repro.par static verdict,
    so the miss table also says which nests could run PARALLEL."""
    try:
        from repro.par.detect import classify_procedure

        return {
            "/".join(v.path): v.verdict
            for v in classify_procedure(result.procedure, result.ctx)
        }
    except Exception:
        return {}  # blocked/rewritten IR the detector cannot classify


def render_profile(
    workload_name: str,
    result,
    tracer,
    machine,
    obs_obj: obs_core.Obs,
    top: int = 10,
) -> str:
    """The text profile printed by the CLI (pure function, for tests)."""
    attribution = tracer.attribution
    stats = tracer.stats
    lines = [f"{__package__} profile — {workload_name}  [{machine.describe()}]"]

    lines.append("\npasses (by wall time):")
    spans = sorted(result.spans, key=lambda s: -s.wall_s)[:top]
    for s in spans:
        cached = " (cached)" if s.cached else ""
        lines.append(
            f"  {s.name:<16} {s.status:<10} {s.wall_s * 1000:9.1f} ms{cached}"
        )

    totals = attribution.totals()
    lines.append(
        f"\nsimulated run: {stats.accesses} refs, {stats.misses} misses "
        f"({stats.miss_ratio:.1%}), {stats.writebacks} writebacks, "
        f"modeled {machine.cost.seconds(stats, tracer.tlb_stats) * 1e3:.3f} ms"
    )

    lines.append("\nloops (by misses):")
    verdicts = _par_verdicts(result)
    for name, row in _top(attribution.by_loop(), top):
        line = _fmt_row(name, row, totals["misses"])
        tag = verdicts.get(name)
        if tag:
            line += f"  [{tag}]"
        lines.append(line)
    lines.append("\nstatements (by misses):")
    for name, row in _top(attribution.by_statement(), top):
        lines.append(_fmt_row(name, row, totals["misses"]))
    lines.append("\narrays (by misses):")
    for name, row in _top(attribution.by_array(), top):
        lines.append(_fmt_row(name, row, totals["misses"]))

    lines.append("\nanalysis cache:")
    for region, st in result.trace["cache"].items():
        lines.append(
            f"  {region:<12} {st['hits']:>6} hits / {st['misses']:>6} misses"
            f"  ({st['hit_rate']:.0%})"
        )

    interesting = (
        "dependence.queries", "dependence.edges",
        "fm.feasible.queries", "fm.direction.queries",
    )
    counted = [(k, obs_obj.counters[k]) for k in interesting if k in obs_obj.counters]
    if counted:
        lines.append("\nanalysis engines:")
        for k, v in counted:
            lines.append(f"  {k:<24} {v}")
    return "\n".join(lines)


def run(args) -> int:
    if args.list:
        for w in available_workloads():
            print(f"{w.name:<12} {w.title}")
        return 0
    if not args.workload:
        raise PipelineError("a workload name is required (or --list)")

    workload = get_workload(args.workload)
    ctx = workload.context(None)
    sizes = cli.resolve_sizes(args.sizes, workload, ctx)
    specs = workload.resolve_specs(cli.split_passes(args.passes))
    machine = scaled_machine(args.scale)
    manager = PassManager(
        specs, ctx=ctx, cache=AnalysisCache(),
        algorithm=workload.name,
    )
    proc = workload.build()

    obs_obj = obs_core.Obs()
    with obs_core.enabled(obs_obj):
        result = manager.run(proc)
        tracer = trace_procedure(
            result.procedure, sizes, machine, seed=args.seed, attribute=True
        )

    print(render_profile(workload.name, result, tracer, machine, obs_obj, args.top))

    status = 0
    if args.chrome_trace:
        export.write_json(args.chrome_trace, export.chrome_trace(obs_obj))
        print(f"\nchrome trace written to {args.chrome_trace} "
              "(open at https://ui.perfetto.dev)")
    store = cli.open_store(args)
    if args.out or store is not None:
        doc = export.metrics(
            obs_obj,
            meta={"workload": workload.name, "machine": machine.name,
                  "sizes": sizes, "passes": [s.name for s in result.spans]},
            attribution=tracer.attribution,
            analysis_cache=result.trace["cache"],
            machine_cache=tracer.stats,
            machine_tlb=tracer.tlb_stats,
        )
        env = envelope(doc, export.SCHEMA, producer=args.producer)
        problems = validate_document(env)
        if not problems:
            publish(args.out, env, export.SCHEMA, store=store)
        elif args.out:
            # an invalid profile is still written for offline inspection,
            # but never published to the store
            write_file(args.out, env)
        if args.out:
            print(f"metrics written to {args.out}")
        if store is not None and not problems:
            print("profile published to the artifact store")
        for problem in problems:
            print(f"METRICS INVALID: {problem.message}", file=sys.stderr)
        if problems:
            status = 1
    return status
