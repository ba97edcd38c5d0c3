"""AnalysisCache: the one memo slot, hit counters, install/uninstall nesting."""

from __future__ import annotations

import pytest

from repro.algorithms import lu_point_ir
from repro.analysis import feasibility as feas_mod
from repro.analysis import graph as graph_mod
from repro.analysis.context import context_for_path
from repro.analysis.dependence import all_dependences
from repro.analysis.feasibility import feasible
from repro.analysis.graph import DependenceGraph
from repro.ir.expr import Var
from repro.ir.visit import find_loops
from repro.pipeline import derive
from repro.pipeline import cache as cache_mod
from repro.pipeline.cache import AnalysisCache, installed, uninstall
from repro.pipeline.manager import run_passes
from repro.pipeline.workloads import available_workloads, get_workload
from repro.symbolic.affine import Affine
from repro.symbolic.assume import Assumptions


def lu_ctx() -> Assumptions:
    return Assumptions().assume_ge("N", 2)


class TestDependenceRegion:
    def test_same_root_hits_equal_copy_misses(self):
        cache = AnalysisCache()
        p1, p2 = lu_point_ir(), lu_point_ir()
        with installed(cache):
            first = all_dependences(p1.body[0], lu_ctx())
            again = all_dependences(p1.body[0], lu_ctx())
            assert cache.dependence.hits == 1
            assert cache.dependence.misses == 1
            # dependence records hold loop identities: a structurally
            # equal but distinct tree must NOT share the cached value
            all_dependences(p2.body[0], lu_ctx())
            assert cache.dependence.misses == 2
        assert [d.kind for d in first] == [d.kind for d in again]

    def test_cached_list_is_a_fresh_copy(self):
        cache = AnalysisCache()
        p = lu_point_ir()
        with installed(cache):
            first = all_dependences(p.body[0], lu_ctx())
            first.append("sentinel")
            again = all_dependences(p.body[0], lu_ctx())
        assert "sentinel" not in again

    def test_results_identical_with_and_without_cache(self):
        p = lu_point_ir()
        bare = all_dependences(p.body[0], lu_ctx())
        with installed(AnalysisCache()):
            hooked = all_dependences(p.body[0], lu_ctx())
            hooked_again = all_dependences(p.body[0], lu_ctx())
        key = lambda deps: [(d.kind, d.direction) for d in deps]
        assert key(bare) == key(hooked) == key(hooked_again)


class TestFeasibilityRegion:
    def test_equal_constraint_lists_hit(self):
        cache = AnalysisCache()
        cons = [Affine.make({"I": 1}, 0), Affine.make({"I": -1}, 5)]
        with installed(cache):
            a = feasible(list(cons))
            b = feasible(list(cons))
        assert a is b or a == b
        assert cache.feasibility.hits == 1
        assert cache.feasibility.misses == 1


def edges(deps) -> list[tuple]:
    """A relative dependence list edge by edge: source and sink statement
    (by identity), array, direction, distance."""
    return [(id(d.source.stmt), id(d.sink.stmt), d.array, d.direction, d.distance)
            for d in deps]


class TestRelativeMemo:
    """``relative_deps`` is memoized per (loop object, context facts), off
    the counted regions: the answer is the one an uncached recomputation
    gives, and only the same loop under the same facts may share it."""

    @pytest.mark.parametrize("name", [w.name for w in available_workloads()])
    def test_memoized_answer_equals_an_uncached_recomputation(self, name):
        w = get_workload(name)
        cache = AnalysisCache()
        derived = derive(name, cache=cache).procedure  # fills the memo
        for proc in (w.build(), derived):
            for loop in find_loops(proc):
                ctx = context_for_path(proc, loop, w.context(None))
                with installed(cache):
                    DependenceGraph(proc, ctx).relative_deps(loop)
                    memoized = DependenceGraph(proc, ctx).relative_deps(loop)
                assert edges(memoized) == edges(graph_mod._relative_deps_uncached(loop, ctx))

    def test_equal_loops_and_added_facts_do_not_share(self):
        cache = AnalysisCache()
        (a,), (b,) = lu_point_ir().body, lu_point_ir().body
        assert a == b and a is not b
        with installed(cache):
            first = DependenceGraph((a,), lu_ctx()).relative_deps(a)
            first.append("sentinel")  # each answer is a fresh list
            assert "sentinel" not in DependenceGraph((a,), lu_ctx()).relative_deps(a)
            assert len(cache.relative) == 1
            DependenceGraph((b,), lu_ctx()).relative_deps(b)
            assert len(cache.relative) == 2
            DependenceGraph((a,), lu_ctx().assume_ge("N", 3)).relative_deps(a)
            assert len(cache.relative) == 3
        # off the counted regions: stats() keeps its five
        assert tuple(cache.stats()) == AnalysisCache.REGIONS
        cache.clear()
        assert not cache.relative


class TestObservation:
    def test_every_memoized_query_is_observed(self):
        """Each region's asks equal its metric's ``.queries`` counter and
        ``.latency_s`` count: section queries are observed like the rest."""
        from repro.obs import core as obs

        cache = AnalysisCache()
        with obs.enabled() as o:
            derive("lu_nopivot", cache=cache)
        metrics = {"dependence": "dependence", "relative": "graph.relative_deps",
                   "feasibility": "fm.feasible", "direction": "fm.direction",
                   "sections": "sections"}
        for region, metric in metrics.items():
            memo = getattr(cache, region)
            asked = memo.hits + memo.misses
            assert asked > 0, region
            assert o.counters[f"{metric}.queries"] == asked, region
            assert o.histograms[f"{metric}.latency_s"].count == asked, region


class TestPassRegion:
    SPEC = [("block", {"loop": "K", "factor": "KS"})]

    def test_second_derivation_replays_from_cache(self):
        cache = AnalysisCache()
        r1 = run_passes(lu_point_ir(), self.SPEC, ctx=lu_ctx(), cache=cache)
        assert not r1.spans[0].cached
        r2 = run_passes(lu_point_ir(), self.SPEC, ctx=lu_ctx(), cache=cache)
        assert r2.spans[0].cached
        assert cache.passes.hits == 1
        assert r2.procedure == r1.procedure
        # the replay must leave the context identical to a fresh run
        assert r2.ctx.facts_key() == r1.ctx.facts_key()

    def test_analysis_regions_fill_during_blocking(self):
        cache = AnalysisCache()
        run_passes(lu_point_ir(), self.SPEC, ctx=lu_ctx(), cache=cache)
        stats = cache.stats()
        assert stats["direction"]["hits"] > 0
        assert stats["sections"]["hits"] > 0

    def test_different_context_misses_pass_cache(self):
        cache = AnalysisCache()
        run_passes(lu_point_ir(), self.SPEC, ctx=lu_ctx(), cache=cache)
        run_passes(
            lu_point_ir(),
            self.SPEC,
            ctx=Assumptions().assume_ge("N", 3),
            cache=cache,
        )
        assert cache.passes.hits == 0
        assert cache.passes.misses == 2

    def test_unserializable_option_skips_memoization(self):
        cache = AnalysisCache()
        spec = [("block", {"loop": "K", "factor": Var("KS")})]
        run_passes(lu_point_ir(), spec, ctx=lu_ctx(), cache=cache)
        run_passes(lu_point_ir(), spec, ctx=lu_ctx(), cache=cache)
        assert cache.passes.hits == 0
        assert cache.passes.misses == 0


class TestInstallation:
    def test_hooks_restored_after_context_exit(self):
        assert feas_mod._memo_cache is None
        cache = AnalysisCache()
        with installed(cache):
            assert feas_mod._memo_cache is cache
        assert feas_mod._memo_cache is None

    def test_nested_installs_restore_the_outer_cache(self):
        outer, inner = AnalysisCache(), AnalysisCache()
        p = lu_point_ir()
        with installed(outer):
            with installed(inner):
                all_dependences(p.body[0], lu_ctx())
                assert inner.dependence.misses == 1
            assert feas_mod._memo_cache is outer
            all_dependences(p.body[0], lu_ctx())
            assert outer.dependence.misses == 1  # outer saw nothing inner did
        assert feas_mod._memo_cache is None

    def test_nested_installs_keep_relative_deps_apart(self):
        outer, inner = AnalysisCache(), AnalysisCache()
        (loop,) = lu_point_ir().body
        with installed(outer):
            with installed(inner):
                DependenceGraph((loop,), lu_ctx()).relative_deps(loop)
            assert (len(inner.relative), len(outer.relative)) == (1, 0)
            DependenceGraph((loop,), lu_ctx()).relative_deps(loop)
            assert len(outer.relative) == 1
        assert feas_mod._memo_cache is None

    def test_unbalanced_uninstall_resets_to_bare_hooks(self):
        # tolerated (reset to None), so a leaked install can't wedge the
        # analysis modules for the rest of the process
        uninstall()
        assert feas_mod._memo_cache is None

    def test_clear_resets_counters_and_entries(self):
        cache = AnalysisCache()
        with installed(cache):
            all_dependences(lu_point_ir().body[0], lu_ctx())
        assert cache.dependence.misses > 0
        cache.clear()
        for region, stats in cache.stats().items():
            assert stats == {"hits": 0, "misses": 0, "entries": 0, "hit_rate": 0.0}, region


class TestBound:
    """Every memo is one dict under :func:`bounded_put`'s rule: a full memo
    is emptied before it grows."""

    def test_a_full_region_is_emptied_before_it_grows(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "_MEMO_CAP", 4)
        region = AnalysisCache().feasibility
        for i in range(10):
            region.put(("k", i), i)
            assert len(region) <= 4
        assert len(region) == 2  # emptied at the 5th and the 9th put
        assert region.peek(("k", 9)) == (True, 9)

    def test_bounded_dependence_region_still_correct(self, monkeypatch):
        # the dependence entry pins its root; emptying it under a tiny
        # bound must only cost recomputation, never correctness
        monkeypatch.setattr(cache_mod, "_MEMO_CAP", 1)
        cache = AnalysisCache()
        p = lu_point_ir()
        with installed(cache):
            first = all_dependences(p.body[0], lu_ctx())
            again = all_dependences(p.body[0], lu_ctx())
        key = lambda deps: [(d.kind, d.direction) for d in deps]
        assert key(first) == key(again)
