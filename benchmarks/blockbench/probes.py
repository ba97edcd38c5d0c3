"""Layer probes: the per-layer numbers a rep cannot give from outside.

A rep times whole public calls (`derive`, `measure`, one request).  The
probes here time the layers *under* those calls one at a time, through
their own public functions, on the same programs and inputs: a dependence
query without a pass around it, traced codegen without a cache behind it,
the worker body without a pool in front of it.  README.md maps each probe
to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import algorithms as alg
from repro import obs
from repro.analysis.dependence import all_dependences
from repro.analysis.graph import DependenceGraph
from repro.check.verifier import verify_ir
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.visit import find_loops, loop_by_var
from repro.machine import trace_procedure
from repro.machine.cache import Cache
from repro.machine.layout import Layout
from repro.machine.model import scaled_machine
from repro.machine.tracer import CacheTracer
from repro.pipeline import AnalysisCache, derive, get_workload
from repro.runtime import compile_procedure, execute
from repro.serve import ArtifactStore, JobSpec, WorkerPool, execute_job, job_key
from repro.symbolic.simplify import simplify

from spans import Recorder
from workloads import CLIENTS, KERNELS, WORKLOADS, Run

PROGRAMS = ("lu_nopivot", "lu_pivot") + KERNELS
QUERIES = 1000


def timed(fn) -> tuple:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def median_s(fn, n: int = 3) -> float:
    return statistics.median(timed(fn)[0] for _ in range(n))


def compiler_probes(seed: int, quick: bool) -> dict:
    """``algorithms``, ``ir``, ``symbolic``, ``analysis``, ``check`` and the
    check/verify share of a derive."""
    m: dict = {}
    dt, built = timed(lambda: {p: get_workload(p).build() for p in PROGRAMS})
    m["algorithms.build_ms"] = dt * 1e3
    ctx = {p: get_workload(p).context(None) for p in PROGRAMS}
    m["ir.fingerprint_ms"] = timed(lambda: [ir_fingerprint(x) for x in built.values()])[0] * 1e3
    m["check.verify_ir_ms"] = timed(
        lambda: [verify_ir(built[p], ctx[p]) for p in PROGRAMS])[0] * 1e3

    # seeded query set over the programs' own loop bounds, each under the
    # assumptions its workload registers
    rng = np.random.default_rng(seed)
    bounds = {p: [b for l in find_loops(built[p]) for b in (l.lo, l.hi)] for p in PROGRAMS}
    queries = []
    for _ in range(QUERIES):
        p = PROGRAMS[int(rng.integers(len(PROGRAMS)))]
        a, b = (bounds[p][int(i)] for i in rng.integers(len(bounds[p]), size=2))
        queries.append((ctx[p], a, b))
    m["symbolic.compare_us"] = timed(
        lambda: [c.compare(a, b) for c, a, b in queries])[0] / QUERIES * 1e6
    m["symbolic.simplify_us"] = timed(
        lambda: [simplify(b - a + 1, c) for c, a, b in queries])[0] / QUERIES * 1e6

    for p in PROGRAMS:
        m[f"analysis.all_dependences_ms.{p}"] = timed(
            lambda: all_dependences(built[p], ctx[p]))[0] * 1e3
    for p in ("lu_nopivot", "lu_pivot"):
        graph = DependenceGraph(built[p], ctx[p])
        k_loop = loop_by_var(built[p].body, "K")
        m[f"analysis.statement_graph_ms.{p}"] = timed(
            lambda: graph.statement_graph(k_loop))[0] * 1e3

    # what check=True and verify=True add to a cold derive
    for p in KERNELS + ("lu_nopivot",):
        n = 1 if p == "lu_nopivot" else 3
        plain = median_s(lambda: derive(p, cache=AnalysisCache()), n)
        checked = median_s(lambda: derive(p, cache=AnalysisCache(), check=True), n)
        m[f"check.legality_overhead_ms.{p}"] = (checked - plain) * 1e3
        if p in KERNELS:
            verified = median_s(lambda: derive(p, cache=AnalysisCache(), verify=True), n)
            m[f"runtime.verify_overhead_ms.{p}"] = (verified - plain) * 1e3
    return m


class _NullTracer:
    def access(self, array, index, is_write) -> None:
        pass


class _RecordingTracer:
    def __init__(self) -> None:
        self.log: list = []

    def access(self, array, index, is_write) -> None:
        self.log.append((array, index, is_write))


def simulator_probes(traces: list, measured: dict, seed: int, quick: bool,
                     failures: list) -> dict:
    """``runtime`` and ``machine`` apart: the traced program into a no-op
    tracer, then its recorded access stream through the cache model.
    ``measured`` holds what `measure` counted for each trace: the replay
    must count the same."""
    m = {"runtime.compile_ms": 0.0, "runtime.traced_null_s": 0.0, "machine.replay_s": 0.0,
         "machine.layout_ms": 0.0, "runtime.plain_exec_s": 0.0}
    for t in traces:
        dt, runner = timed(lambda: compile_procedure(t.proc, traced=True))
        m["runtime.compile_ms"] += dt * 1e3
        m["runtime.traced_null_s"] += timed(
            lambda: runner(t.sizes, arrays=t.arrays, tracer=_NullTracer(), seed=seed))[0]

        recording = _RecordingTracer()
        runner(t.sizes, arrays=t.arrays, tracer=recording, seed=seed)
        dt, layout = timed(lambda: Layout.for_procedure(
            t.proc, t.sizes, line_bytes=t.machine.cache.line_bytes))
        m["machine.layout_ms"] += dt * 1e3
        tracer = CacheTracer(layout, Cache(t.machine.cache),
                             Cache(t.machine.tlb) if t.machine.tlb is not None else None)

        def replay():
            access = tracer.access
            for array, index, is_write in recording.log:
                access(array, index, is_write)

        m["machine.replay_s"] += timed(replay)[0]
        st = tracer.stats
        replayed = [st.accesses, st.misses, st.writebacks,
                    tracer.tlb_stats.misses if tracer.tlb_stats is not None else 0]
        if replayed != measured.get(t.label):
            failures.append(f"replay:{t.label}: counts differ from `measure`")
        del recording

        plain = compile_procedure(t.proc)
        m["runtime.plain_exec_s"] += timed(
            lambda: plain(t.sizes, arrays=t.arrays, seed=seed))[0]

    n = 24 if quick else 48
    m["runtime.interp_exec_s"] = timed(lambda: execute(alg.lu_point_ir(), {"N": n}))[0]
    m["obs.attribution_s"] = timed(lambda: trace_procedure(
        alg.lu_point_ir(), {"N": n}, scaled_machine(4), attribute=True))[0]
    return m


def obs_probe(kernels_state: dict) -> dict:
    """One derive_kernels rep under an enabled observer ÷ one without,
    as the ratio of medians over alternating pairs."""
    def rep_wall() -> float:
        run = Run(Recorder(enabled=False))
        WORKLOADS["derive_kernels"].rep(kernels_state, run)
        return run.walls[0]

    def observed() -> float:
        with obs.enabled():
            return rep_wall()

    pairs = [(observed(), rep_wall()) for _ in range(3)]
    on, off = (statistics.median(x) for x in zip(*pairs))
    return {"obs.enabled_overhead_ratio": on / off}


def serve_probes(jobs: list, tmp: Path) -> dict:
    """``serve`` without the daemon: keys, the store, the worker body run
    in-process (no IPC), and an empty job through the pool."""
    m: dict = {}
    specs = [JobSpec.from_dict(j) for j in jobs]
    dt, keys = timed(lambda: [job_key(s) for s in specs])
    m["serve.job_key_us"] = dt / len(specs) * 1e6

    exec_s, results = [], []
    for s in specs:
        dt, result = timed(lambda: execute_job(s))
        exec_s.append(dt)
        results.append(result)
    m["serve.execute_job_ms"] = statistics.median(exec_s) * 1e3

    store = ArtifactStore(tempfile.mkdtemp(prefix="probe-store-", dir=tmp))
    m["serve.store_put_us"] = timed(
        lambda: [store.put(k, r) for k, r in zip(keys, results)])[0] / len(keys) * 1e6
    dt, got = timed(lambda: [store.get(k) for k in keys])
    m["serve.store_get_us"] = dt / len(keys) * 1e6
    if [v for _, v in got] != results:
        raise RuntimeError("store returned something other than what was put")

    probe = JobSpec(kind="probe", workload="blockbench", use_store=False)
    with WorkerPool(workers=CLIENTS) as pool:
        first = timed(lambda: pool.run([probe]))[0]  # forks the workers
        trips = [timed(lambda: pool.run([probe]))[0] for _ in range(20)]
    m["serve.pool_dispatch_ms"] = statistics.median(trips) * 1e3
    m["serve.pool_spawn_s"] = first - statistics.median(trips)
    return m
