"""Ablation studies for the design choices DESIGN.md calls out.

Not tables from the paper — these quantify *why* the reproduction behaves
as it does: which transformation contributes what, how the blocking factor
interacts with cache capacity, and where IF-inspection stops paying.
"""

import numpy as np
import pytest

from repro.algorithms import lu_point_ir, matmul_guarded_ir, sparse_b
from repro.bench.experiments import (
    _plus_variant,
    derived_block_lu,
    matmul_ujif,
    scaled_size,
)
from repro.bench.harness import Table, measure
from repro.machine.cache import CacheConfig
from repro.machine.model import MachineModel, scaled_machine


def test_ablation_pipeline_contributions(benchmark, show):
    """Point -> blocked ("2") -> +UJ -> +UJ+SR: who contributes what."""
    m = scaled_machine(4)
    n, ks = 100, 8

    def run():
        from repro.analysis.context import context_for_path
        from repro.bench.experiments import _update_j_loop
        from repro.symbolic.assume import Assumptions
        from repro.transform import scalar_replace, unroll_and_jam

        base = Assumptions().assume_ge("N", 2).assume_ge("KS", 2)
        blocked = derived_block_lu()
        j2 = _update_j_loop(blocked)
        uj_only = unroll_and_jam(blocked, j2, 4, context_for_path(blocked, j2, base))
        full, _ = scalar_replace(uj_only, base)
        variants = {
            "point": (lu_point_ir(), {"N": n}),
            "blocked (Fig6)": (blocked, {"N": n, "KS": ks}),
            "blocked+UJ": (uj_only, {"N": n, "KS": ks}),
            "blocked+UJ+SR": (full, {"N": n, "KS": ks}),
        }
        return {k: measure(p, s, m) for k, (p, s) in variants.items()}

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(
        title="Ablation: transformation pipeline contributions (LU, N=100, KS=8)",
        paper_ref="design study (not a paper table)",
        machine=m.describe(),
        columns=("variant", "refs", "misses", "modeled_s", "speedup_vs_point"),
    )
    base_s = got["point"].modeled_seconds
    for k, r in got.items():
        t.add(variant=k, refs=r.refs, misses=r.misses, modeled_s=r.modeled_seconds,
              speedup_vs_point=base_s / r.modeled_seconds)
    show(t.title, t.render())
    # each stage must help (or at least not hurt)
    order = ["point", "blocked (Fig6)", "blocked+UJ", "blocked+UJ+SR"]
    times = [got[k].modeled_seconds for k in order]
    assert times[-1] < times[0]
    assert got["blocked+UJ+SR"].refs < got["blocked+UJ"].refs  # SR removes refs
    assert got["blocked (Fig6)"].misses <= got["point"].misses  # blocking removes misses


def test_ablation_blocksize_sweep(benchmark, show):
    """Modeled time of blocked+UJ+SR LU across blocking factors."""
    m = scaled_machine(4)
    n = 100
    factors = [2, 4, 8, 16, 32]

    def run():
        proc = _plus_variant(derived_block_lu())
        return {ks: measure(proc, {"N": n, "KS": ks}, m) for ks in factors}

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(
        title="Ablation: blocking-factor sweep (LU 2+, N=100)",
        paper_ref="design study",
        machine=m.describe(),
        columns=("KS", "misses", "modeled_s"),
    )
    for ks in factors:
        t.add(KS=ks, misses=got[ks].misses, modeled_s=got[ks].modeled_seconds)
    show(t.title, t.render())
    times = [got[ks].modeled_seconds for ks in factors]
    # the sweet spot is interior-ish: the extremes must not be the best
    best = min(times)
    assert min(times[0], times[-1]) > best * 0.999
    assert times[0] != best or times[-1] != best


def test_ablation_cache_capacity(benchmark, show):
    """Point LU miss counts across cache capacities (same trace)."""
    n = 64
    caps = [1024, 4096, 16384, 65536]

    def run():
        out = {}
        for cap in caps:
            mm = MachineModel("cap", CacheConfig(cap, 32, 4))
            out[cap] = measure(lu_point_ir(), {"N": n}, mm)
        return out

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(
        title="Ablation: cache-capacity sweep (point LU, N=64)",
        paper_ref="design study",
        machine="32B lines, 4-way, capacity varied",
        columns=("capacity", "misses", "miss_ratio"),
    )
    for cap in caps:
        t.add(capacity=cap, misses=got[cap].misses, miss_ratio=got[cap].miss_ratio)
    show(t.title, t.render())
    misses = [got[c].misses for c in caps]
    assert misses == sorted(misses, reverse=True), "misses must fall with capacity"
    # when the whole problem fits (64*64*8 = 32KB < 64KB), only cold misses
    assert got[65536].misses <= got[1024].misses / 3


def test_ablation_guard_density(benchmark, show):
    """Where does IF-inspection stop paying?  Sweep the guard-true
    frequency: at high density the executor does the same work as the
    original, so the win narrows toward the register-blocking floor."""
    m = scaled_machine(4)
    n = scaled_size(300)
    freqs = [0.025, 0.1, 0.3, 0.6, 0.9]

    def run():
        orig = matmul_guarded_ir()
        ujif = matmul_ujif()
        out = {}
        for f in freqs:
            b = sparse_b(n, f, run_len=max(4, n // 8)).astype(np.float32)
            o = measure(orig, {"N": n}, m, arrays={"B": b})
            u = measure(ujif, {"N": n}, m, arrays={"B": b})
            out[f] = o.modeled_seconds / u.modeled_seconds
        return out

    got = benchmark.pedantic(run, rounds=1, iterations=1)
    t = Table(
        title="Ablation: IF-inspection win vs guard-true frequency",
        paper_ref="extends the Sec. 4 table's two frequencies",
        machine=m.describe(),
        columns=("frequency", "speedup"),
    )
    for f in freqs:
        t.add(frequency=f, speedup=got[f])
    show(t.title, t.render())
    assert all(s > 1.0 for s in got.values()), "UJ+IF should never lose here"
