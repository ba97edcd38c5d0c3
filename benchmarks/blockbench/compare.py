"""``--compare A.json B.json``: B against A, one row per (metric, workload).

A and B are documents written by ``--out`` (one run, or the ``runs`` of an
all-workloads invocation).  For the untraced runs each end-to-end metric is
judged against its bound in ``BENCHMARK.json``; for the traced runs the
exact counts must be equal and the timings are listed without a verdict.

A row reads ``unresolved`` when the spread the run itself recorded between
its reps (interquartile range over median, of either side) is wider than
the bound: the difference may be real, but these two runs cannot show it.
Run more pairs; do not read it as "unchanged".
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _runs(path: str) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = doc["runs"] if "runs" in doc else [doc]
    return {(r["workload"], r["trace"]): r for r in runs}


def compare(path_a: str, path_b: str, contract: dict) -> int:
    a_runs, b_runs = _runs(path_a), _runs(path_b)
    shared = [k for k in a_runs if k in b_runs]
    if not shared:
        print("error: the two documents share no (workload, trace) run", file=sys.stderr)
        return 2
    for side, runs in (("A", a_runs), ("B", b_runs)):
        env = next(iter(runs.values()))["environment"]
        print(f"{side}: {json.dumps(env)}")
        if env["loadavg_1m"] > env["nproc"]:
            print(f"warning: {side} ran at load {env['loadavg_1m']:.2f} on "
                  f"{env['nproc']} cores", file=sys.stderr)

    bounds = {m["name"]: m for m in contract["end_to_end"]}
    bad = 0
    print(f"{'workload':<15} {'metric':<34} {'A':>12} {'B':>12} {'worse by':>9} "
          f"{'bound':>6}  verdict")
    for key in shared:
        a, b = a_runs[key], b_runs[key]
        for name, av in a["metrics"].items():
            bv = b["metrics"].get(name)
            if bv is None:
                continue
            x, y = av["value"], bv["value"]
            spec = bounds.get(name)
            if spec is None:  # a per-layer metric: counts are exact, times have no bound
                if av["unit"] != "count":
                    verdict, worse, bound = "", (y - x) / x if x else 0.0, ""
                elif x == y:
                    continue
                else:
                    verdict, worse, bound, bad = "DIFFERENT COUNT", 0.0, "", bad + 1
            else:
                sign = 1.0 if spec["better"] == "lower" else -1.0
                worse, bound = sign * (y - x) / x, spec["bound"]
                spread = max(side.get(name, {}).get("spread", 0.0) for side in (a, b))
                if spread > bound:
                    verdict = f"unresolved (rep spread {spread:.3f})"
                elif worse > bound:
                    verdict, bad = "WORSE", bad + 1
                else:
                    verdict = "better" if worse < -bound else "ok"
            print(f"{key[0]:<15} {name:<34} {x:>12.5g} {y:>12.5g} {worse:>+9.3f} "
                  f"{bound!s:>6}  {verdict}")
    for side, runs in (("A", a_runs), ("B", b_runs)):
        failed = {k[0]: r["failed"] for k, r in runs.items() if r["failed"]}
        if failed:
            print(f"{side}: failed ops {failed}")
            bad += 1
    return 1 if bad else 0
