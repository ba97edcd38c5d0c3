"""Miss attribution: stream sites, the digests of the per-access
implementation this one replaced, and the sum-consistency invariant."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.artifacts.envelope import canonical_json
from repro.errors import MachineError
from repro.ir.build import assign, do, if_, ref
from repro.ir.expr import Compare, Const, Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine import scaled_machine
from repro.machine.cache import Cache, CacheConfig
from repro.machine.layout import Layout
from repro.machine.tracer import CacheTracer, trace_procedure
from repro.obs.attribution import TOPLEVEL, MissAttribution, stmt_label
from repro.pipeline import available_workloads, derive, get_workload
from repro.runtime.codegen import compile_stream
from repro.runtime.interpreter import execute
from tests.conftest import PerArrayReference, by_array_counts

FIELDS = ("accesses", "misses", "writebacks", "tlb_misses", "writes")

#: sha256 of canonical ``MissAttribution.to_dict()`` per ``workload/variant/
#: machine``, recorded from the interpreter + ``Provenance`` implementation
#: (commit 1a273e5) at verify sizes, seed 0
DIGESTS = json.loads(Path(__file__).with_name("attribution_digests.json").read_text())


def flags(*values):
    return np.array(values, dtype=bool)


def recorded(*accesses) -> MissAttribution:
    """An attribution of ``(key, is_write, miss, wrote_back, tlb_miss)``
    accesses, one site per distinct key."""
    keys = list(dict.fromkeys(a[0] for a in accesses))
    a = MissAttribution(keys)
    sites = np.array([keys.index(k) for k, *_ in accesses])
    is_write, miss, wrote_back, tlb_miss = (flags(*col) for col in list(zip(*accesses))[1:])
    a.count(sites, miss, wrote_back, tlb_miss, is_write)
    return a


class TestProvenance:
    """Where an access comes from: the stream's static sites."""

    def test_loop_path_push_pop(self):
        # DO K { X(K) ; DO I { A(I) } ; B(K) }: the path grows into the
        # inner nest and shrinks again behind it
        body = do(
            "K", 1, "N",
            assign(ref("X", "K"), 0.0),
            do("I", 1, "N", assign(ref("A", "I"), 1.0)),
            assign(ref("B", "K"), 2.0),
        )
        decls = tuple(ArrayDecl(a, (Var("N"),)) for a in ("X", "A", "B"))
        sites = compile_stream(Procedure("p", ("N",), decls, (body,))).sites
        assert [(path, array) for path, _, array in sites] == [
            (("K",), "X"), (("K", "I"), "A"), (("K",), "B"),
        ]

    def test_stmt_labels(self, vecadd_proc):
        loop_j = vecadd_proc.body[0]
        loop_i = loop_j.body[0]
        store = loop_i.body[0]
        assert stmt_label(loop_j) == "DO J"
        assert stmt_label(store) == "A(I)"
        # A(I) = A(I) + B(J): loads left to right, then the store
        assert compile_stream(vecadd_proc).sites == [
            (("J", "I"), store, "A"), (("J", "I"), store, "B"), (("J", "I"), store, "A"),
        ]


@pytest.mark.parametrize("workload", [w.name for w in available_workloads()])
def test_stream_attribution_reproduces_the_recorded_digests(workload, tiny_machine):
    w = get_workload(workload)
    for variant, proc in (("point", w.build()), ("derived", derive(workload).procedure)):
        sizes = {p: w.sizes_for()[p] for p in proc.params}
        for tag, machine in (("notlb", tiny_machine), ("tlb", scaled_machine(16))):
            doc = trace_procedure(proc, sizes, machine, seed=0, attribute=True).attribution.to_dict()
            digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
            assert digest == DIGESTS[f"{workload}/{variant}/{tag}"], (variant, tag)


class TestMissAttribution:
    def test_views_sum_to_totals(self):
        a = recorded(
            ((("K", "I"), "A(I)", "A"), True, True, True, False),
            ((("K", "I"), "A(I)", "A"), False, False, False, True),
            ((("K",), "B(K)", "B"), False, True, False, False),
            (((), "C(1)", "C"), True, False, False, False),
        )
        totals = a.totals()
        assert totals == {
            "accesses": 4, "misses": 2, "writebacks": 1,
            "tlb_misses": 1, "writes": 2,
        }
        for view in (a.by_loop(), a.by_statement(), a.by_array()):
            for f in FIELDS:
                assert sum(r[f] for r in view.values()) == totals[f]

    def test_toplevel_key_for_accesses_outside_loops(self):
        a = recorded((((), "X(1)", "X"), False, False, False, False))
        assert TOPLEVEL in a.by_loop()
        assert f"{TOPLEVEL}: X(1)" in a.by_statement()

    def test_to_dict_rows_sorted_by_misses(self):
        a_key, b_key = (("I",), "A(I)", "A"), (("I",), "B(I)", "B")
        a = recorded(*((k, False, True, False, False) for k in (a_key, b_key, b_key)))
        d = a.to_dict()
        assert [r["array"] for r in d["rows"]] == ["B", "A"]
        assert set(d) == {"rows", "by_loop", "by_statement", "by_array", "totals"}


class TestTracedAttribution:
    def test_attribute_run_matches_cache_stats(self, vecadd_proc, tiny_machine):
        sizes = {"N": 12, "M": 40}
        tracer = trace_procedure(vecadd_proc, sizes, tiny_machine, attribute=True)
        a = tracer.attribution
        assert a is not None
        totals = a.totals()
        stats = tracer.stats
        assert totals["accesses"] == stats.accesses
        assert totals["misses"] == stats.misses
        assert totals["writebacks"] == stats.writebacks
        assert totals["writes"] == stats.writes
        # per-array view agrees with a per-access tally of the interpreter
        layout = Layout.for_procedure(vecadd_proc, sizes, line_bytes=32)
        reference = PerArrayReference(CacheTracer(layout, Cache(tiny_machine.cache)))
        execute(vecadd_proc, sizes, tracer=reference)
        assert by_array_counts(tracer) == reference.by_array

    def test_sites_carry_loop_paths(self, vecadd_proc, tiny_machine):
        tracer = trace_procedure(
            vecadd_proc, {"N": 4, "M": 8}, tiny_machine, attribute=True
        )
        by_loop = tracer.attribution.by_loop()
        # every access of the vecadd kernel happens inside DO J / DO I
        assert list(by_loop) == ["J/I"]
        by_stmt = tracer.attribution.by_statement()
        assert "J/I: A(I)" in by_stmt
        # A is read+written, B read once per (J,I): 3 refs per iteration
        assert by_loop["J/I"]["accesses"] == 3 * 4 * 8

    def test_attribute_and_codegen_agree_on_stats(self, vecadd_proc, tiny_machine):
        sizes = {"N": 6, "M": 32}
        attributed = trace_procedure(vecadd_proc, sizes, tiny_machine, attribute=True)
        plain = trace_procedure(vecadd_proc, sizes, tiny_machine)
        assert attributed.stats == plain.stats

    def test_if_condition_charged_to_if_label(self, tiny_machine):
        # IF (MASK(I) .NE. 0) A(I) = 2.0 — the MASK read belongs to the IF site
        proc = Procedure(
            "guarded",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("MASK", (Var("N"),))),
            (
                do(
                    "I", 1, "N",
                    if_(
                        Compare("ne", ref("MASK", "I"), Const(0.0)),
                        assign(ref("A", "I"), 2.0),
                    ),
                ),
            ),
        )
        tracer = trace_procedure(proc, {"N": 16}, tiny_machine, attribute=True)
        by_stmt = tracer.attribution.by_statement()
        if_sites = [k for k in by_stmt if k.startswith("I: IF")]
        assert if_sites, f"no IF site in {list(by_stmt)}"
        assert sum(by_stmt[k]["accesses"] for k in if_sites) == 16  # MASK reads


    def test_loop_bound_load_charged_to_the_loop_label(self, tiny_machine):
        # DO I { DO J = 1, LEN(I) { A(J) = 0 } }: LEN(I) is read once per I,
        # by the J loop's own statement, outside the J nest
        proc = Procedure(
            "ragged",
            ("N",),
            (ArrayDecl("A", (Var("N"),)), ArrayDecl("LEN", (Var("N"),), dtype="i8")),
            (do("I", 1, "N", do("J", 1, ref("LEN", "I"), assign(ref("A", "J"), 0.0))),),
        )
        arrays = {"A": np.ones(5), "LEN": np.array([1, 2, 3, 4, 5])}
        tracer = trace_procedure(proc, {"N": 5}, tiny_machine, arrays=arrays, attribute=True)
        by_stmt = tracer.attribution.by_statement()
        assert by_stmt["I: DO J"]["accesses"] == 5
        assert by_stmt["I/J: A(J)"]["accesses"] == 15

    def test_site_counts_do_not_depend_on_the_chunk_split(self):
        proc, sizes, machine = get_workload("lu_nopivot").build(), {"N": 24}, scaled_machine(16)
        whole = trace_procedure(proc, sizes, machine, attribute=True)
        run, chunks = compile_stream(proc), []
        run(sizes, whole.layout, lambda *chunk: chunks.append(chunk))
        addrs, writes, sites = (np.concatenate(column) for column in zip(*chunks))
        assert len(chunks) > 1 and len(addrs) == whole.stats.accesses
        for step in (len(addrs), 97):
            split = CacheTracer(
                whole.layout, Cache(machine.cache), Cache(machine.tlb),
                attribution=MissAttribution(whole.attribution.keys),
            )
            for i in range(0, len(addrs), step):
                split.access_many(addrs[i : i + step], writes[i : i + step], sites[i : i + step])
            assert split.attribution.to_dict() == whole.attribution.to_dict(), step

    def test_layout_beyond_the_site_packing_is_refused(self, vecadd_proc):
        # 3 sites need 2 bits, so 2*address must stay below 2**61
        sizes = {"N": 4, "M": 8}
        run = compile_stream(vecadd_proc)
        near = Layout({"A": (8,), "B": (4,)}, line_bytes=32, base=(1 << 60) - 1024)
        seen = []
        run(sizes, near, lambda a, w, s: seen.extend(zip(a.tolist(), s.tolist())))
        assert seen[0] == (near.address("A", (1,)), 0) and len(seen) == 3 * 4 * 8
        far = Layout({"A": (8,), "B": (4,)}, line_bytes=32, base=1 << 60)
        with pytest.raises(MachineError, match="64-bit"):
            run(sizes, far, lambda *chunk: None)


class TestTracerDirect:
    def test_writeback_charged_to_triggering_access(self):
        # 1-set, 1-way cache: write line 0 (dirty), then read line 1 -> the
        # read evicts dirty line 0 and must be charged its write-back.
        layout = Layout({"A": (16,)}, line_bytes=32)
        cache = Cache(CacheConfig(32, 32, 1))
        store, load = ((), "store", "A"), ((), "load", "A")
        tracer = CacheTracer(layout, cache, attribution=MissAttribution([store, load]))
        tracer.access_many(
            np.array([layout.address("A", (1,)), layout.address("A", (5,))]),  # lines 0, 1
            flags(True, False),
            np.array([0, 1]),
        )
        rows = tracer.attribution.sites
        assert rows[store][2] == 0  # writebacks slot
        assert rows[load][2] == 1
        assert cache.stats.writebacks == 1
