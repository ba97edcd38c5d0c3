"""The ``bench`` command: ``python -m repro bench [PATH]``.

Runs every entry of :data:`BENCH_WORKLOADS` — the paper's derivations
plus recipe/checked variants — twice in-process against one shared
analysis cache: a **cold** pass that pays for every dependence /
Fourier–Motzkin / section query, then a **warm** pass that replays from
the cache, and writes ``BENCH_pipeline.json`` with per-pass wall times
and per-region hit rates.  Future PRs diff this file to see whether the
analysis hot path moved.  (Spreading derivations over a worker pool
against the artifact store is ``python -m repro serve submit``.)

``--obs OUT.json`` additionally captures a ``repro.obs/1`` metrics
profile of the same run, so the BENCH artifact carries its own
explanation.

Payload schema (written enveloped — see :mod:`repro.artifacts`)::

    {
      'schema': 'repro.pipeline.bench/1',
      'mode': 'inprocess',
      'workloads': {
        '<label>': {
          'workload': 'lu_nopivot',
          'passes': ['block', ...],
          'cold': {'elapsed_s': f, 'spans': [{'pass','status','wall_s','cached'}]},
          'warm': {...same shape, spans mostly cached...},
          'warm_speedup': f
        }, ...
      },
      'cache': { '<region>': {'hits','misses','entries','evictions',
                              'hit_rate'}, ... }
    }
"""

from __future__ import annotations

import sys

from repro import cli
from repro.artifacts.flatten import Sink, cache_stats
from repro.artifacts.registry import PIPELINE_BENCH as SCHEMA
from repro.artifacts.shape import enum, map_of
from repro.errors import CheckError
from repro.pipeline import derive
from repro.pipeline.cache import AnalysisCache

#: what to measure: (label, workload, pass list or None for the default
#: pipeline, run under the repro.check gate).  Labels key the JSON.
BENCH_WORKLOADS = (
    ("lu_nopivot", "lu_nopivot", None, False),
    ("lu_split_block_jam", "lu_nopivot", ("split", "block", "jam"), False),
    ("lu_checked", "lu_nopivot", None, True),
    ("givens", "givens", ("givens_opt", "scalars"), False),
    ("conv", "conv", None, False),
    ("aconv", "aconv", None, False),
    ("matmul", "matmul", None, False),
)


def _run(name: str, passes, cache: AnalysisCache, check: bool = False) -> dict:
    result = derive(
        name,
        passes=list(passes) if passes is not None else None,
        cache=cache,
        check=check,
    )
    return {
        "elapsed_s": round(result.trace["elapsed_s"], 4),
        "spans": [
            {
                "pass": s.name,
                "status": s.status,
                "wall_s": round(s.wall_s, 4),
                "cached": s.cached,
            }
            for s in result.spans
        ],
    }


def run_bench(check: bool = False) -> dict:
    cache = AnalysisCache()
    workloads = {}
    for label, name, passes, entry_check in BENCH_WORKLOADS:
        checked = check or entry_check
        cold = _run(name, passes, cache, check=checked)
        warm = _run(name, passes, cache, check=checked)
        workloads[label] = {
            "workload": name,
            "passes": [s["pass"] for s in cold["spans"]],
            "cold": cold,
            "warm": warm,
            "warm_speedup": round(
                cold["elapsed_s"] / warm["elapsed_s"], 1
            )
            if warm["elapsed_s"] > 0
            else None,
        }
    return {
        "schema": SCHEMA,
        "mode": "inprocess",
        "workloads": workloads,
        "cache": cache.stats(),
    }


_LEG = {"elapsed_s": float}

SHAPE = {
    "mode": enum("inprocess"),
    "workloads": map_of({"cold": _LEG, "warm": _LEG}),
    "cache": dict,
}


def invariants(bench: dict) -> list[str]:
    """A bench table measured something."""
    return [] if bench["workloads"] else ["workloads: empty"]


def flatten_bench(bench: dict) -> dict:
    """Flat perf metrics for a bench payload — the registered perf
    ingestion hook for :data:`SCHEMA`."""
    sink = Sink()
    for label, data in sorted((bench.get("workloads") or {}).items()):
        if not isinstance(data, dict):
            continue
        cold = data.get("cold") or {}
        warm = data.get("warm") or {}
        sink.put(f"bench:{label}.cold_s", cold.get("elapsed_s"))
        sink.put(f"bench:{label}.warm_s", warm.get("elapsed_s"))
        sink.put(f"bench:{label}.warm_speedup", data.get("warm_speedup"))
    cache_stats(sink, bench.get("cache"))
    return sink.metrics


def register(sub) -> None:
    p = sub.add_parser(
        "bench",
        description="benchmark the pass pipeline: every workload cold, then "
        "warm, against one shared analysis cache",
    )
    p.add_argument("out", nargs="?", default="BENCH_pipeline.json",
                   metavar="PATH")
    cli.observe_flags(p)
    p.add_argument(
        "--check",
        action="store_true",
        help="run the repro.check verifier/legality predicates during the "
        "bench derivations; exit 1 on any error-severity diagnostic",
    )
    p.set_defaults(fn=run)


def run(args) -> int:
    try:
        with cli.observed(args, {"tool": __name__}) as blocks:
            bench = run_bench(check=args.check)
            blocks["analysis_cache"] = bench["cache"]
    except CheckError as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        for d in e.diagnostics:
            print(f"  {d.pretty()}", file=sys.stderr)
        return 1
    for label, data in bench["workloads"].items():
        print(
            f"{label:<20} cold {data['cold']['elapsed_s']:7.3f}s  "
            f"warm {data['warm']['elapsed_s']:7.3f}s  "
            f"(x{data['warm_speedup']})"
        )
    for region, stats in bench["cache"].items():
        print(
            f"cache[{region}]: {stats['hits']} hits / {stats['misses']} misses "
            f"({stats['hit_rate']:.0%}, {stats['evictions']} evictions)"
        )
    cli.emit(args, bench, what="bench")
    return 0
