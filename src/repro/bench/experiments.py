"""Experiment definitions: one entry per table/figure of the paper.

Each ``table_*`` function builds the workload, obtains every variant the
paper measures (point algorithm, hand-blocked comparator, **compiler-
derived** transformed version, and the "+" register-blocked version),
traces them through the scaled machine model, and returns a
:class:`~repro.bench.harness.Table` carrying both the paper's published
numbers and ours, plus ``assert_*`` helpers encoding the *shape* claims
(who wins, roughly by how much, where the crossovers are).

The variant constructions call the actual compiler — pass pipelines run
through :mod:`repro.pipeline` (``derive``) and the blockability driver —
not hand-written blocked code, wherever the paper claims compiler
derivability; hand transcriptions (Figs. 6/8/10) serve as the comparators
the derived code is checked against.  Routing the derivations through the
pass manager gives every table tracing and analysis caching for free.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from repro.algorithms import (
    aconv_ir,
    conv_ir,
    givens_point_ir,
    lu_pivot_block_fig8_ir,
    lu_pivot_point_ir,
    lu_point_ir,
    lu_sorensen_ir,
    matmul_guarded_ir,
    sparse_b,
)
from repro.analysis.context import context_for_path
from repro.bench.harness import Table, measure
from repro.errors import TransformError
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Loop, Procedure
from repro.ir.visit import find_loops, loop_by_var
from repro.machine.model import MachineModel, RS6000_540, scaled_machine
from repro.symbolic.assume import Assumptions
from repro.transform import if_inspect, scalar_replace, unroll_and_jam
from repro.transform.base import sole_inner_loop

#: default geometry scale: problem dims /4, cache /16, line /4 — an exact
#: divisor of the paper's geometry (blocks 32/64 -> 8/16, 128B lines ->
#: 32B, 64KB -> 4KB), which keeps every footprint:capacity ratio identical
SCALE = 4


def scaled_size(paper_size: int, scale: int = SCALE) -> int:
    return max(8, paper_size // scale)


def scaled_block(paper_block: int, scale: int = SCALE) -> int:
    return max(2, round(paper_block / scale))


# ---------------------------------------------------------------------------
# compiler-derived variants (cached; derivations are deterministic)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def derived_block_lu() -> Procedure:
    """Fig. 6, derived by the compiler from the point algorithm."""
    from repro.pipeline import derive

    result = derive("lu_nopivot")
    report = result.artifact("block")
    if report is None or not report.blocked_innermost:
        raise TransformError("block LU derivation regressed")  # pragma: no cover
    return result.procedure


@functools.lru_cache(maxsize=None)
def derived_block_lu_pivot() -> Procedure:
    """Fig. 8, derived from the point algorithm with the commutativity
    oracle (one cold derivation, ~2 s)."""
    from repro.pipeline import derive

    result = derive("lu_pivot")
    report = result.artifact("block")
    if report is None or not report.used_commutativity:
        raise TransformError("pivot LU derivation regressed")  # pragma: no cover
    return result.procedure


@functools.lru_cache(maxsize=None)
def givens_opt_measured() -> Procedure:
    """The derived Fig. 10 plus scalar replacement (the register
    allocation the paper's Fortran compiler performs on the pivot-row
    element A(L,K) and the rotation temporaries)."""
    from repro.pipeline import derive

    return derive("givens", passes=["givens_opt", "scalars"]).procedure


def _update_j_loop(proc: Procedure) -> Loop:
    """The trailing-update J loop (direct child of the block K loop)."""
    k_loop = loop_by_var(proc.body, "K")
    for s in k_loop.body:
        if isinstance(s, Loop) and s.var == "J":
            return s
    raise TransformError("no trailing-update J loop found")  # pragma: no cover


def _plus_variant(proc: Procedure, uj: int = 4) -> Procedure:
    """The paper's "+" treatment: unroll-and-jam the trailing update and
    scalar-replace the innermost loops."""
    base = Assumptions().assume_ge("N", 2).assume_ge("KS", 2)
    j2 = _update_j_loop(proc)
    ctx = context_for_path(proc, j2, base)
    proc = unroll_and_jam(proc, j2, uj, ctx)
    proc, _reports = scalar_replace(proc, base)
    return proc


@functools.lru_cache(maxsize=None)
def lu_two_plus() -> Procedure:
    return _plus_variant(derived_block_lu())


@functools.lru_cache(maxsize=None)
def lu_pivot_one_plus() -> Procedure:
    return _plus_variant(lu_pivot_block_fig8_ir())


# ---------------------------------------------------------------------------
# matmul variants (Sec. 4)
# ---------------------------------------------------------------------------

def matmul_guard_inner_ir(name: str = "matmul_guard_inner") -> Procedure:
    """The guard replicated in the innermost loop — the starting point of
    the paper's (slower) plain-UJ comparator."""
    N = Var("N")
    return Procedure(
        name,
        ("N",),
        (
            ArrayDecl("A", (N, N), dtype="f4"),
            ArrayDecl("B", (N, N), dtype="f4"),
            ArrayDecl("C", (N, N), dtype="f4"),
        ),
        (
            do(
                "J",
                1,
                "N",
                do(
                    "K",
                    1,
                    "N",
                    do(
                        "I",
                        1,
                        "N",
                        if_(
                            Compare("ne", ref("B", "K", "J"), Const(0.0)),
                            [
                                assign(
                                    ref("C", "I", "J"),
                                    ref("C", "I", "J") + ref("A", "I", "K") * ref("B", "K", "J"),
                                )
                            ],
                        ),
                    ),
                ),
            ),
        ),
    )


@functools.lru_cache(maxsize=None)
def matmul_uj_naive(u: int = 4) -> Procedure:
    """Guard moved innermost, then unroll-and-jam of K (paper's "UJ")."""
    proc = matmul_guard_inner_ir()
    k = loop_by_var(proc.body, "K")
    ctx = context_for_path(proc, k, Assumptions().assume_ge("N", 1))
    return unroll_and_jam(proc, k, u, ctx)


@functools.lru_cache(maxsize=None)
def matmul_ujif(u: int = 4) -> Procedure:
    """IF-inspection then unroll-and-jam of the executor (paper's
    "UJ+IF"), plus scalar replacement of the now-unguarded accumulators."""
    proc = matmul_guarded_ir()
    k = loop_by_var(proc.body, "K")
    ctx = context_for_path(proc, k, Assumptions().assume_ge("N", 1))
    proc, executor = if_inspect(proc, k, ctx)
    exec_live = next(l for l in find_loops(proc) if l == executor)
    k_exec = sole_inner_loop(exec_live)
    proc = unroll_and_jam(proc, k_exec, u, Assumptions().assume_ge("N", 1))
    proc, _ = scalar_replace(proc, Assumptions().assume_ge("N", 1))
    return proc


# ---------------------------------------------------------------------------
# convolution variants (Sec. 3.2)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def conv_transformed(kind: str, u: int = 4) -> Procedure:
    """The Sec. 3.2 treatment: complete index-set splitting, (triangular)
    unroll-and-jam, scalar replacement — the ``split``, ``jam``, and
    ``scalars`` passes of the workload's default pipeline."""
    from repro.pipeline import derive

    return derive(kind, unroll=u).procedure


# ---------------------------------------------------------------------------
# table builders
# ---------------------------------------------------------------------------

#: paper numbers: (size -> (original_s, transformed_s, speedup))
PAPER_T1 = {
    ("Aconv", 300): (4.59, 2.55, 1.80),
    ("Aconv", 500): (12.46, 6.65, 1.87),
    ("Conv", 300): (4.61, 2.53, 1.82),
    ("Conv", 500): (12.56, 6.63, 1.91),
}

PAPER_T2 = {  # freq -> (original, UJ, UJ+IF, speedup)
    "2.5%": (3.33, 3.84, 2.25, 1.48),
    "10%": (3.08, 3.71, 2.13, 1.45),
}

PAPER_T3 = {  # (size, block) -> (point, "1", "2", "2+", speedup)
    (300, 32): (1.47, 1.37, 1.35, 0.49, 3.00),
    (300, 64): (1.47, 1.42, 1.38, 0.58, 2.53),
    (500, 32): (6.76, 6.58, 6.44, 2.13, 3.17),
    (500, 64): (6.76, 6.59, 6.38, 2.27, 2.98),
}

PAPER_T4 = {  # (size, block) -> (point, "1", "1+", speedup)
    (300, 32): (1.52, 1.42, 0.58, 2.62),
    (300, 64): (1.52, 1.48, 0.67, 2.27),
    (500, 32): (7.01, 6.85, 2.58, 2.72),
    (500, 64): (7.01, 6.83, 2.73, 2.57),
}

PAPER_T5 = {300: (6.86, 3.37, 2.04), 500: (84.0, 15.3, 5.49)}


def conv_sizes(paper_size: int) -> dict[str, int]:
    """N1 = N3 = size; N2 chosen so ~75% of the work is in the triangular
    region, matching the paper's stated execution mix."""
    n2 = round(paper_size * 6 / 7)
    return {"N1": paper_size, "N2": n2, "N3": paper_size, "DT": 0.5}


def table_t1_convolution(machine: Optional[MachineModel] = None, u: int = 4) -> Table:
    """Sec. 3.2 table: Aconv/Conv, original vs transformed.

    The conv arrays fit any realistic cache, so the paper's 1.8–1.9x is a
    *register* effect: unroll-and-jam + scalar replacement remove
    redundant loads.  The reference-count term of the cost model carries
    it; no geometry scaling is needed (paper sizes run directly)."""
    machine = machine or RS6000_540
    t = Table(
        title="T1: time-series convolution kernels",
        paper_ref="Sec. 3.2 table (IBM RS/6000-540, double precision)",
        machine=machine.describe(),
        columns=(
            "kernel", "size", "paper_orig_s", "paper_xform_s", "paper_speedup",
            "refs_orig", "refs_xform", "modeled_speedup",
        ),
    )
    for kind, label in (("aconv", "Aconv"), ("conv", "Conv")):
        point = aconv_ir() if kind == "aconv" else conv_ir()
        xform = conv_transformed(kind, u)
        for size in (300, 500):
            sizes = conv_sizes(size)
            base = measure(point, sizes, machine)
            opt = measure(xform, sizes, machine)
            po, px, ps = PAPER_T1[(label, size)]
            t.add(
                kernel=label, size=size,
                paper_orig_s=po, paper_xform_s=px, paper_speedup=ps,
                refs_orig=base.refs, refs_xform=opt.refs,
                modeled_speedup=base.modeled_seconds / opt.modeled_seconds,
            )
    t.notes.append("paper sizes run unscaled; speedup here is register-traffic driven")
    return t


def table_t2_if_inspection(
    scale: int = SCALE, machine: Optional[MachineModel] = None, u: int = 4
) -> Table:
    """Sec. 4 table: guarded matmul, Original vs UJ vs UJ+IF."""
    machine = machine or scaled_machine(scale)
    n = scaled_size(300, scale)
    t = Table(
        title="T2: IF-inspected matrix multiply",
        paper_ref="Sec. 4 table (300x300 REAL, guard-true frequency varied)",
        machine=f"{machine.describe()}  N={n} (scale 1/{scale})",
        columns=(
            "frequency", "paper_orig_s", "paper_uj_s", "paper_ujif_s", "paper_speedup",
            "modeled_orig", "modeled_uj", "modeled_ujif", "modeled_speedup",
        ),
    )
    variants = {
        "orig": matmul_guarded_ir(),
        "uj": matmul_uj_naive(u),
        "ujif": matmul_ujif(u),
    }
    for freq_label, freq in (("2.5%", 0.025), ("10%", 0.10)):
        b = sparse_b(n, freq, run_len=max(4, n // 8)).astype(np.float32)
        arrays = {"B": b}
        got = {
            k: measure(p, {"N": n}, machine, arrays=arrays) for k, p in variants.items()
        }
        po, pu, pi, ps = PAPER_T2[freq_label]
        t.add(
            frequency=freq_label,
            paper_orig_s=po, paper_uj_s=pu, paper_ujif_s=pi, paper_speedup=ps,
            modeled_orig=got["orig"].modeled_seconds,
            modeled_uj=got["uj"].modeled_seconds,
            modeled_ujif=got["ujif"].modeled_seconds,
            modeled_speedup=got["orig"].modeled_seconds / got["ujif"].modeled_seconds,
        )
    return t


def table_t3_lu(scale: int = SCALE, machine: Optional[MachineModel] = None) -> Table:
    """Sec. 5.1 table: LU without pivoting — Point, "1" (hand-blocked),
    "2" (compiler-derived Fig. 6), "2+" (derived + UJ + scalar repl.)."""
    machine = machine or scaled_machine(scale)
    t = Table(
        title="T3: LU decomposition without pivoting",
        paper_ref="Sec. 5.1 table (double precision)",
        machine=f"{machine.describe()} (scale 1/{scale})",
        columns=(
            "size", "block", "paper_point_s", "paper_1_s", "paper_2_s", "paper_2p_s",
            "paper_speedup", "modeled_point", "modeled_1", "modeled_2", "modeled_2p",
            "modeled_speedup",
        ),
    )
    point = lu_point_ir()
    blocked = {
        "1": lu_sorensen_ir(),
        "2": derived_block_lu(),
        "2+": lu_two_plus(),
    }
    for size in (300, 500):
        n = scaled_size(size, scale)
        got = {"point": measure(point, {"N": n}, machine)}  # no KS: once per size
        for block in (32, 64):
            ks = scaled_block(block, scale)
            for key, proc in blocked.items():
                got[key] = measure(proc, {"N": n, "KS": ks}, machine)
            pp, p1, p2, p2p, ps = PAPER_T3[(size, block)]
            t.add(
                size=size, block=block,
                paper_point_s=pp, paper_1_s=p1, paper_2_s=p2, paper_2p_s=p2p,
                paper_speedup=ps,
                modeled_point=got["point"].modeled_seconds,
                modeled_1=got["1"].modeled_seconds,
                modeled_2=got["2"].modeled_seconds,
                modeled_2p=got["2+"].modeled_seconds,
                modeled_speedup=got["point"].modeled_seconds / got["2+"].modeled_seconds,
            )
    t.notes.append('"2" is the compiler-derived Fig. 6; "1" stands in for the Sorensen hand code (DESIGN.md)')
    return t


def table_t4_lu_pivot(scale: int = SCALE, machine: Optional[MachineModel] = None) -> Table:
    """Sec. 5.2 table: LU with partial pivoting — Point, "1" (the
    compiler-derived Fig. 8), "1+" (the Fig. 8 listing + UJ + scalar
    replacement)."""
    machine = machine or scaled_machine(scale)
    t = Table(
        title="T4: LU decomposition with partial pivoting",
        paper_ref="Sec. 5.2 table (double precision)",
        machine=f"{machine.describe()} (scale 1/{scale})",
        columns=(
            "size", "block", "paper_point_s", "paper_1_s", "paper_1p_s", "paper_speedup",
            "modeled_point", "modeled_1", "modeled_1p", "modeled_speedup",
        ),
    )
    point = lu_pivot_point_ir()
    blocked = {
        "1": derived_block_lu_pivot(),
        "1+": lu_pivot_one_plus(),
    }
    for size in (300, 500):
        n = scaled_size(size, scale)
        got = {"point": measure(point, {"N": n}, machine)}  # no KS: once per size
        for block in (32, 64):
            ks = scaled_block(block, scale)
            for key, proc in blocked.items():
                got[key] = measure(proc, {"N": n, "KS": ks}, machine)
            pp, p1, p1p, ps = PAPER_T4[(size, block)]
            t.add(
                size=size, block=block,
                paper_point_s=pp, paper_1_s=p1, paper_1p_s=p1p, paper_speedup=ps,
                modeled_point=got["point"].modeled_seconds,
                modeled_1=got["1"].modeled_seconds,
                modeled_1p=got["1+"].modeled_seconds,
                modeled_speedup=got["point"].modeled_seconds / got["1+"].modeled_seconds,
            )
    t.notes.append(
        '"1" is the compiler-derived Fig. 8 (commutativity oracle); "1+" is '
        "built on the hand transcription of the Fig. 8 listing, the reference "
        "the derivation is tested against"
    )
    return t


def table_t5_givens(scale: int = SCALE, machine: Optional[MachineModel] = None) -> Table:
    """Sec. 5.4 table: Givens QR — point vs optimized (derived Fig. 10)."""
    machine = machine or scaled_machine(scale)
    t = Table(
        title="T5: QR decomposition with Givens rotations",
        paper_ref="Sec. 5.4 table",
        machine=f"{machine.describe()} (scale 1/{scale})",
        columns=(
            "size", "paper_point_s", "paper_opt_s", "paper_speedup",
            "modeled_point", "modeled_opt", "modeled_speedup",
        ),
    )
    point = givens_point_ir()
    opt = givens_opt_measured()
    for size in (300, 500):
        n = scaled_size(size, scale)
        rng = np.random.default_rng(7)
        a = np.asfortranarray(rng.uniform(0.1, 1.0, (n, n)))
        got_p = measure(point, {"M": n, "N": n}, machine, arrays={"A": a})
        got_o = measure(opt, {"M": n, "N": n}, machine, arrays={"A": a})
        pp, po, ps = PAPER_T5[size]
        t.add(
            size=size, paper_point_s=pp, paper_opt_s=po, paper_speedup=ps,
            modeled_point=got_p.modeled_seconds,
            modeled_opt=got_o.modeled_seconds,
            modeled_speedup=got_p.modeled_seconds / got_o.modeled_seconds,
        )
    t.notes.append("optimized variant: compiler-derived Fig. 10 + scalar replacement")
    return t
