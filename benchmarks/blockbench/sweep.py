"""The traced run (``--trace 1``): every per-layer metric, in one pass.

The run sets up all four workloads, runs one traced rep of each (the same
``rep`` the untraced run times, now with spans around each call), then the
layer probes.  ``--workload`` names the workload the ``trace.*`` and
``share.*`` metrics describe: it gets one untraced rep first, so that
traced wall over untraced wall is the tracing overhead.  End-to-end
numbers never come from this run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import probes
from spans import HARNESS, Recorder, self_time_table
from workloads import KERNELS, WORKLOADS, Run

#: every layer a span can be charged to; ``share.<layer>`` is its part of
#: the traced rep's self time
LAYERS = ("analysis", "transform", "pipeline", "check", "ir", "frontend",
          "machine", "daemon", "serve.pool", "serve.worker", HARNESS)
TIERS = ("dependence", "direction", "feasibility", "sections", "passes")


def _ms(run: Run, prefix: str) -> float:
    """Median milliseconds of the traced rep's ops named ``prefix``."""
    return statistics.median(run.seconds(prefix)) * 1e3


def block_metrics(run: Run, out: dict) -> dict:
    m = {f"check.lint_ms.{p}": _ms(run, f"lint:{p}") for p in out["verdicts"]}
    for p in out["fingerprints"]:
        m[f"pipeline.derive_cold_ms.{p}"] = _ms(run, f"derive:{p}")
        m[f"pipeline.rederive_ms.{p}"] = _ms(run, f"rederive:{p}")
        m[f"ir.size_after.{p}"] = out["ir_size"][p]
    for tier in TIERS:  # over the cold LU derivations of this rep
        stats = [s[tier] for s in out["cache_stats"].values()]
        hits, misses = (sum(s[k] for s in stats) for k in ("hits", "misses"))
        m[f"analysis.cache_misses.{tier}"] = misses
        m[f"analysis.cache_hit_rate.{tier}"] = hits / max(1, hits + misses)
    return m


def kernel_metrics(run: Run, out: dict) -> dict:
    m: dict = {}
    passes_ms = 0.0
    for k in KERNELS:
        m[f"pipeline.derive_cold_ms.{k}"] = _ms(run, f"derive:{k}")
        m[f"pipeline.rederive_ms.{k}"] = _ms(run, f"rederive:{k}")
        m[f"ir.size_after.{k}"] = out["ir_size"][k]
        for name, ms in out["pass_ms"][k].items():
            m[f"pipeline.pass_ms.{k}.{name}"] = ms
            passes_ms += ms
    cold_ms = sum(run.seconds("derive:")) * 1e3
    m["pipeline.manager_overhead_ms"] = cold_ms - passes_ms
    pretty = sum(s.duration for s in run.rec.spans if s.name == "to_fortran")
    parse = sum(s.duration for s in run.rec.spans if s.name == "parse_procedure")
    m["ir.pretty_ms"] = pretty * 1e3
    m["frontend.parse_ms"] = parse * 1e3
    m["frontend.parse_knodes_per_s"] = out["nodes"] / parse / 1e3
    return m


def simulate_metrics(run: Run, out: dict) -> dict:
    m = {f"bench.measure_s.{label}": run.seconds(f"measure:{label}")[0]
         for label in out["stats"]}
    totals = [sum(s[i] for s in out["stats"].values()) for i in (0, 1, 3)]
    m["machine.accesses"], m["machine.misses"], m["machine.tlb_misses"] = totals
    m["machine.kacc_per_s"] = totals[0] / sum(run.seconds("measure:")) / 1e3
    return m


def serve_metrics(run: Run, out: dict) -> dict:
    def p(prefix: str, q: float = 0.5) -> float:
        xs = sorted(run.seconds(prefix))
        return xs[min(len(xs) - 1, int(len(xs) * q))] * 1e3

    first, second = out["status_first"], out["status_second"]
    cold = [s for s in run.rec.spans if s.name == "phase:cold"]
    return {
        "daemon.start_s": statistics.median(out["start_s"]),
        "daemon.drain_s": statistics.median(out["drain_s"]),
        "daemon.http_roundtrip_ms": p("ping"),
        "daemon.cold_p50_ms": p("cold:"),
        "daemon.cold_jobs_per_s": len(out["cold"]) / cold[0].duration,
        "daemon.memory_hit_p50_ms": p("memory:"),
        "daemon.memory_hit_p95_ms": p("memory:", 0.95),
        "daemon.store_hit_p50_ms": p("restart:"),
        "daemon.computed": first["completed"].get("computed", 0),
        "daemon.memory_hits": first["memory_hits"],
        "daemon.store_hits": second["completed"].get("hit", 0),
        "daemon.shed": first["shed"] + second["shed"],
    }


REP_METRICS = {"derive_block": block_metrics, "derive_kernels": kernel_metrics,
               "simulate": simulate_metrics, "serve_mix": serve_metrics}


def run_traced(args, tmp: Path, contract: dict, scratch: Path):
    """Returns ``(metrics, run, detail)`` for ``finish``: every per-layer
    metric of the contract, measured in this process."""
    expected = json.loads((Path(__file__).parent / "expected.json").read_text("utf-8"))
    states = {name: w.setup(args.seed, args.quick, tmp) for name, w in WORKLOADS.items()}

    target = WORKLOADS[args.workload]
    untraced = Run(Recorder(enabled=False))
    target.rep(states[args.workload], untraced)

    rec = Recorder(enabled=True)
    total = Run(rec)  # the ops and failures of the whole sweep
    m: dict = {}
    runs: dict = {}
    for name, w in WORKLOADS.items():
        run = runs[name] = Run(rec)
        with rec.span(f"workload:{name}", HARNESS):
            out = w.rep(states[name], run)
        run.failures += w.verify(states[name], [out], expected, args.seed, args.quick)
        if not run.failures:
            m.update(REP_METRICS[name](run, out))
        if name == "simulate":
            m.update(probes.simulator_probes(states[name]["traces"], out["stats"],
                                             args.seed, args.quick, run.failures))
        total.ops += run.ops
        total.failures += run.failures
    m.update(probes.compiler_probes(args.seed, args.quick))
    m.update(probes.obs_probe(states["derive_kernels"]))
    m.update(probes.serve_probes(states["serve_mix"]["jobs"], tmp))
    m["machine.null_plus_replay_ratio"] = (
        (m["runtime.traced_null_s"] + m["machine.replay_s"])
        / sum(runs["simulate"].seconds("measure:")))

    # the named workload's traced rep: overhead, and where its time went
    mine = runs[args.workload]
    by_layer: dict = {}
    for root in mine.clock_spans:
        for layer, t in rec.self_by_layer(root).items():
            by_layer[layer] = by_layer.get(layer, 0.0) + t
    self_total = sum(by_layer.values())
    m["trace.overhead_ratio"] = mine.walls[0] / untraced.walls[0]
    m["trace.unattributed_share"] = by_layer.get(HARNESS, 0.0) / self_total
    for layer in LAYERS:
        m[f"share.{layer}"] = by_layer.get(layer, 0.0) / self_total

    trace_file = scratch / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps(rec.chrome_trace()), encoding="utf-8")
    print(f"self time of one traced {args.workload} rep "
          f"(Chrome trace of the sweep: {trace_file}):")
    print(self_time_table(by_layer))

    # exactly the contract's names; --quick skips lu_pivot and what hangs on it
    units = {x["name"]: x["unit"] for x in contract["per_layer"]}
    if set(m) - set(units):
        total.failures.append(f"metrics outside BENCHMARK.json: {sorted(set(m) - set(units))}")
    if set(units) - set(m) and not args.quick:
        total.failures.append(f"per-layer metrics not measured: {sorted(set(units) - set(m))}")
    metrics = {k: (m[k], u) for k, u in units.items() if k in m}
    return metrics, total, {"self_time_s": by_layer, "trace_file": str(trace_file)}
