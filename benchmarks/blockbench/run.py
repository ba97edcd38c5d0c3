#!/usr/bin/env python3
"""blockbench: the one repeatable end-to-end + per-layer benchmark.

    python3 benchmarks/blockbench/run.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/blockbench/run.py [--quick] [--out F]      # all four workloads
    python3 benchmarks/blockbench/run.py --compare A.json B.json
    python3 benchmarks/blockbench/run.py --update-expected

Runs against the unmodified ``src/repro`` tree (found next to this
directory; no ``PYTHONPATH`` needed), checks every output, prints every
metric by name with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  README.md beside this
file says why each workload exists and which layer should move which number.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up is measured from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SCRATCH = ROOT / ".blockbench"  # stores, traces: inside the checkout, git-ignored
sys.path[:0] = [str(HERE), str(ROOT / "src")]

SETUP_REPEATS = 3


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summary(samples: list) -> dict:
    """Median, sample count, spread (interquartile range over median), and
    the highest percentile that still has at least ten samples beyond it."""
    xs = sorted(samples)
    out = {"p50": statistics.median(xs), "n": len(xs), "spread": 0.0}
    if len(xs) > 1:
        q = statistics.quantiles(xs, n=4)
        out["spread"] = (q[2] - q[0]) / out["p50"]
    for p in (99.9, 99, 95, 90, 75):
        if len(xs) * (100 - p) / 100 >= 10:
            out["tail"] = {"p": p, "value": xs[min(len(xs) - 1, int(len(xs) * p / 100))]}
            break
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (the daemon), in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    nproc, load = os.cpu_count() or 1, os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-min load average {load:.2f} exceeds nproc {nproc}; "
              "timings will be noisy", file=sys.stderr)
    return {"nproc": nproc, "python": platform.python_version(), "git_sha": sha,
            "seed": seed, "loadavg_1m": load}


# ---------------------------------------------------------------------------
# one workload, untraced: the end-to-end metrics
# ---------------------------------------------------------------------------

def timed_setups(workload, run, seed: int, quick: bool, tmp: Path):
    """Set up ``SETUP_REPEATS`` times; the state of the last one is used.
    ``setup_s`` is process start to imports done, plus the median set-up,
    each as on the reference host (a yardstick sample on either side).
    Returns ``(state, setup_s, setup_s as timed)``."""
    imported = time.perf_counter()
    run.yardstick()
    scaled, timed = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, quick, tmp)
        t1 = time.perf_counter()
        run.yardstick()
        timed.append(t1 - t0)
        scaled.append((t1 - t0) / run.slowdown(t0, t1))
    imports_s = imported - T_START
    return (state,
            imports_s / run.slowdown(imported, imported) + statistics.median(scaled),
            imports_s + statistics.median(timed))


def run_reps(workload, state, run, seconds: float, quick: bool) -> list:
    """Reps until the next one would overrun ``seconds``, and never fewer
    than the workload's minimum."""
    outputs = []
    t0 = time.perf_counter()
    while True:
        run.rep = len(outputs)
        outputs.append(workload.rep(state, run))
        if quick:
            break
        elapsed = time.perf_counter() - t0
        if len(outputs) >= workload.min_reps and (
            elapsed + elapsed / len(outputs) > seconds
        ):
            break
    return outputs


def set_time_ms(run, tag: str, seconds_of) -> dict:
    """Milliseconds for one pass over the ops with ``tag``: each distinct
    op at the median of all its samples, summed.  ``spread`` is that of the
    per-rep passes, and ``per_op`` keeps the tail of the single ops."""
    by_name: dict = {}
    by_rep: dict = {}
    for o in run.ops:
        if o.tag == tag:
            ms = seconds_of(o) * 1e3
            by_name.setdefault(o.name, []).append(ms)
            by_rep.setdefault(o.rep, {}).setdefault(o.name, []).append(ms)
    passes = [sum(map(statistics.median, names.values())) for names in by_rep.values()]
    return {
        "value": sum(map(statistics.median, by_name.values())),
        "ops": len(by_name), "spread": summary(passes)["spread"],
        "per_op": summary([x for xs in by_name.values() for x in xs]),
    }


def rep_wall_s(run, seconds_of) -> dict:
    """Seconds for one rep with every segment at its median across reps;
    ``spread`` is that of the whole reps."""
    segments: dict = {}
    for o in run.ops:
        if o.segment:
            per_rep = segments.setdefault(o.name, {})
            per_rep[o.rep] = per_rep.get(o.rep, 0.0) + seconds_of(o)
    return {"value": sum(statistics.median(per_rep.values()) for per_rep in segments.values()),
            "spread": summary(list(run.walls.values()))["spread"]}


def run_untraced(args, tmp: Path):
    """Returns ``(metrics, run, detail)`` for ``finish``."""
    from spans import Recorder
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[args.workload]
    run = Run(Recorder(enabled=False), yardstick=workload.yardstick)
    state, setup_s, setup_timed = timed_setups(workload, run, args.seed, args.quick, tmp)
    outputs = run_reps(workload, state, run, args.seconds, args.quick)
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    run.failures += workload.verify(state, outputs, expected, args.seed, args.quick)

    # timings are reported as on the reference host (Run.scaled); what the
    # clock said goes into --out beside them
    def timings(seconds_of) -> dict:
        return {"wall_s": rep_wall_s(run, seconds_of),
                "cold_set_ms": set_time_ms(run, "cold", seconds_of),
                "warm_set_ms": set_time_ms(run, "warm", seconds_of)}

    scaled, timed = timings(run.scaled), timings(lambda o: o.seconds)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (scaled["wall_s"]["value"], "s"),
        "cold_set_ms": (scaled["cold_set_ms"]["value"], "ms"),
        "warm_set_ms": (scaled["warm_set_ms"]["value"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, run, {
        "reps": len(outputs), **scaled,
        "as_timed": {"setup_s": setup_timed, **{k: v["value"] for k, v in timed.items()}},
        "yardstick": {"samples": len(run.spins),
                      "median_s": statistics.median(run.spins) if run.spins else None},
    }


def finish(args, metrics: dict, run, detail: dict) -> dict:
    attempted = max(1, len(run.ops))
    failed = min(attempted, len(run.failures))
    for line in run.failures:
        print(f"FAILED {line}", file=sys.stderr)
    doc = {
        "workload": args.workload, "trace": args.trace, "quick": args.quick,
        "environment": environment(args.seed), **detail,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<15} {name:<{width}} {value:>14.6g} {unit}")
    if detail.get("yardstick", {}).get("samples"):
        print(f"{args.workload:<15} timings are as on the reference host; the yardstick took "
              f"{detail['yardstick']['median_s'] * 1e3:.2f} ms here "
              f"(median of {detail['yardstick']['samples']})")
    return doc


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one of the four; default: all, one process each")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help="measure for about this long "
                   "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                   help="1: the traced run, which prints the per-layer metrics")
    p.add_argument("--quick", action="store_true",
                   help="1 rep, lu_pivot skipped, smallest sizes")
    p.add_argument("--out", metavar="F", help="also write the full result document here")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    p.add_argument("--update-expected", action="store_true")
    return p.parse_args(argv)


def run_all(args) -> int:
    """Every workload in a process of its own, so each pays its own set-up."""
    names = [w["name"] for w in load_contract()["workloads"]]
    docs, rc = [], 0
    SCRATCH.mkdir(exist_ok=True)
    for name in names:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        cmd += ["--quick"] if args.quick else []
        cmd += ["--seconds", str(args.seconds)] if args.seconds else []
        with tempfile.NamedTemporaryFile(dir=SCRATCH, suffix=".json") as part:
            rc = subprocess.run(cmd + ["--out", part.name]).returncode or rc
            if os.path.getsize(part.name):  # a run that died early wrote nothing
                docs.append(json.loads(Path(part.name).read_text(encoding="utf-8")))
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": docs}, indent=1) + "\n",
                                  encoding="utf-8")
    return rc


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    if args.compare:
        from compare import compare

        return compare(*args.compare, load_contract())
    if args.update_expected:
        from expected import update_expected

        return update_expected(HERE / "expected.json")
    if args.workload is None:
        return run_all(args)

    contract = load_contract()
    if args.workload not in [w["name"] for w in contract["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "repro-cache")  # never the repo's
    try:
        if args.trace:
            from sweep import run_traced

            metrics, run, detail = run_traced(args, tmp, contract, SCRATCH)
        else:
            metrics, run, detail = run_untraced(args, tmp)
        doc = finish(args, metrics, run, detail)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
