"""Properties of the cache simulator and the section algebra."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.expr import Const
from repro.analysis.sections import (
    Section,
    Triplet,
    section_contains,
    section_disjoint,
    section_intersect,
    section_union_hull,
)
from repro.machine.cache import WINDOW_FLOOR, Cache, CacheConfig
from repro.symbolic.assume import Assumptions

addresses = st.lists(st.integers(min_value=0, max_value=4095), min_size=1, max_size=300)


class TestCacheProperties:
    @settings(max_examples=60, deadline=None)
    @given(trace=addresses)
    def test_lru_inclusion_fully_associative(self, trace):
        """A bigger fully-associative LRU cache never misses more."""
        small = Cache(CacheConfig(256, 32, 0))
        big = Cache(CacheConfig(1024, 32, 0))
        for a in trace:
            small.access(a)
            big.access(a)
        assert big.stats.misses <= small.stats.misses

    @settings(max_examples=60, deadline=None)
    @given(trace=addresses)
    def test_miss_count_bounds(self, trace):
        c = Cache(CacheConfig(512, 32, 2))
        for a in trace:
            c.access(a)
        distinct_lines = len({a // 32 for a in trace})
        assert distinct_lines <= c.stats.misses <= len(trace)
        assert c.stats.accesses == len(trace)

    @settings(max_examples=60, deadline=None)
    @given(trace=addresses)
    def test_residency_never_exceeds_capacity(self, trace):
        c = Cache(CacheConfig(256, 32, 2))
        for a in trace:
            c.access(a, is_write=bool(a % 2))
            assert c.resident_lines <= c.config.n_lines

    @settings(max_examples=60, deadline=None)
    @given(trace=addresses)
    def test_writebacks_bounded_by_dirtying_writes(self, trace):
        c = Cache(CacheConfig(128, 32, 1))
        writes = 0
        for a in trace:
            is_w = bool(a % 3 == 0)
            writes += is_w
            c.access(a, is_write=is_w)
        assert c.stats.writebacks <= writes

    @settings(max_examples=40, deadline=None)
    @given(trace=addresses)
    def test_replay_determinism(self, trace):
        c1 = Cache(CacheConfig(256, 32, 4))
        c2 = Cache(CacheConfig(256, 32, 4))
        for a in trace:
            c1.access(a)
            c2.access(a)
        assert c1.stats.misses == c2.stats.misses


# direct-mapped, 2-way, 4-way, fully associative, and a single line
geometries = st.sampled_from(
    [(256, 32, 1), (256, 32, 2), (512, 32, 4), (256, 32, 0), (32, 32, 1), (64, 64, 0)]
)
rw_traces = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2047), st.booleans()),
    min_size=1,
    max_size=300,
)
# how a trace is cut up: (chunk length, drive this chunk through access_many?)
splits = st.lists(st.tuples(st.integers(min_value=1, max_value=40), st.booleans()), max_size=20)


def one_by_one(cache, trace):
    """Per access: (hit, evicted a dirty line), through ``cache.access``."""
    flags = []
    for a, w in trace:
        before = cache.stats.writebacks
        flags.append((cache.access(a, w), cache.stats.writebacks > before))
    return flags


def drive(cache, trace, split):
    """Feed ``trace`` to ``cache`` cut as ``split`` says (the remainder as
    one batch); returns the per-access (hit, evicted a dirty line) flags."""
    flags, pos = [], 0
    for length, batch in list(split) + [(len(trace), True)]:
        chunk = trace[pos : pos + length]
        pos += length
        if batch:
            addrs = np.array([a for a, _ in chunk], dtype=np.int64)
            writes = np.array([w for _, w in chunk], dtype=bool)
            miss, wrote_back = cache.access_many(addrs, writes)
            flags += zip((~miss).tolist(), wrote_back.tolist())
        else:
            flags += one_by_one(cache, chunk)
    return flags


class TestBatchEqualsPerAccess:
    @settings(max_examples=200, deadline=None)
    @given(geometry=geometries, trace=rw_traces, split=splits)
    def test_any_split_and_interleaving(self, geometry, trace, split):
        """However a trace is chunked, and whichever of ``access`` and
        ``access_many`` takes each chunk, every hit and write-back flag, every
        counter and every set's contents, LRU order and dirty bits come out the same."""
        reference = Cache(CacheConfig(*geometry))
        mixed = Cache(CacheConfig(*geometry))
        assert drive(mixed, trace, split) == one_by_one(reference, trace)
        assert mixed.stats == reference.stats
        assert [list(s.items()) for s in mixed._sets] == [
            list(s.items()) for s in reference._sets
        ]

    @settings(max_examples=60, deadline=None)
    @given(trace=addresses, split=splits)
    def test_lru_inclusion_through_access_many(self, trace, split):
        small = Cache(CacheConfig(256, 32, 0))
        big = Cache(CacheConfig(1024, 32, 0))
        rw = [(a, False) for a in trace]
        small_hits, big_hits = drive(small, rw, split), drive(big, rw, split)
        assert all(b or not s for (s, _), (b, _) in zip(small_hits, big_hits))  # stack inclusion
        assert big.stats.misses <= small.stats.misses


# One-set caches (every TLB), whose ``access_many`` settles a long stretch
# over few distinct lines as a window.  ``(ways, 32 * ways, 32, 0)`` is fully
# associative; ``(4, 128, 32, 4)`` is one set by its associativity.
one_set_geometries = st.sampled_from(
    [(1, 32, 32, 0), (2, 64, 32, 0), (4, 128, 32, 0), (4, 128, 32, 4), (32, 1024, 32, 0)]
)
segments = st.lists(
    st.tuples(
        st.sampled_from(["few", "over", "alternate", "sweep"]),
        st.integers(min_value=1, max_value=1500),  # accesses
        st.sampled_from([0.0, 0.05, 0.5]),  # share of writes
    ),
    min_size=1,
    max_size=4,
)
long_splits = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3000), st.booleans()), max_size=5
)


def long_trace(ways, segments, seed):
    """Stretches of up to 1 500 accesses each: over at most ``ways`` lines,
    over slightly more, alternating between two or three, or sweeping every
    line in turn — all drawn from one pool of ``ways + 3`` lines."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(200, size=ways + 3, replace=False)
    trace = []
    for kind, n, write_share in segments:
        if kind == "sweep":
            lines = np.resize(pool, n)
        elif kind == "alternate":
            lines = np.resize(rng.choice(pool, size=rng.integers(2, 4), replace=False), n)
        else:
            k = rng.integers(1, ways + 1) if kind == "few" else ways + rng.integers(1, 4)
            lines = rng.choice(rng.choice(pool, size=k, replace=False), size=n)
        addrs = lines * 32 + rng.integers(0, 32, size=n)
        trace += zip(addrs.tolist(), (rng.random(n) < write_share).tolist())
    return trace


class TestWindowsEqualPerAccess:
    @settings(max_examples=120, deadline=None)
    @given(geometry=one_set_geometries, segments=segments, split=long_splits,
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_long_chunks_over_few_lines(self, geometry, segments, split, seed):
        """As ``test_any_split_and_interleaving``, on chunks long enough to
        be settled by their distinct lines."""
        ways, *config = geometry
        trace = long_trace(ways, segments, seed)
        reference, mixed = Cache(CacheConfig(*config)), Cache(CacheConfig(*config))
        assert drive(mixed, trace, split) == one_by_one(reference, trace)
        assert mixed.stats == reference.stats
        assert list(mixed._sets[0].items()) == list(reference._sets[0].items())

    def test_a_window_replays_its_distinct_lines_only(self, monkeypatch):
        """4 000 accesses alternating between three pages of a 32-entry TLB:
        the three pages replayed twice, in first-touch and in last-touch
        order, where run-collapsing alone leaves 4 000 LRU updates."""
        tlb = Cache(CacheConfig(32 * 1024, 1024, 0))
        replayed = []
        replay = tlb._replay
        monkeypatch.setattr(
            tlb, "_replay", lambda lines, writes: replayed.append(len(lines)) or replay(lines, writes)
        )
        pages = np.resize([7, 3, 40], 4000)
        miss, _ = tlb.access_many(pages * 1024, np.resize([False, True, False, False], 4000))
        assert replayed == [3, 3]
        assert miss.tolist() == [True] * 3 + [False] * 3997
        assert list(tlb._sets[0].items()) == [(3, True), (40, True), (7, True)]

    def test_too_many_lines_are_halved_then_replayed(self, monkeypatch):
        """A sweep over 40 pages never fits 32 entries: the chunk is halved
        down to the floor and every access replayed, all of them missing."""
        tlb = Cache(CacheConfig(32 * 1024, 1024, 0))
        replayed = []
        replay = tlb._replay
        monkeypatch.setattr(
            tlb, "_replay", lambda lines, writes: replayed.append(len(lines)) or replay(lines, writes)
        )
        miss, _ = tlb.access_many(np.resize(np.arange(40), 3000) * 1024, np.zeros(3000, dtype=bool))
        assert sum(replayed) == 3000 and max(replayed) < WINDOW_FLOOR
        assert miss.all()


bounds = st.integers(min_value=0, max_value=30)


def concrete_sections(lo1, hi1, lo2, hi2):
    a = Section("A", (Triplet(Const(lo1), Const(hi1)),))
    b = Section("A", (Triplet(Const(lo2), Const(hi2)),))
    sa = set(range(lo1, hi1 + 1))
    sb = set(range(lo2, hi2 + 1))
    return a, b, sa, sb


class TestSectionAlgebra:
    @settings(max_examples=150, deadline=None)
    @given(lo1=bounds, hi1=bounds, lo2=bounds, hi2=bounds)
    def test_against_concrete_sets(self, lo1, hi1, lo2, hi2):
        ctx = Assumptions()
        a, b, sa, sb = concrete_sections(lo1, hi1, lo2, hi2)
        # three-valued answers must agree with set semantics when decided
        d = section_disjoint(a, b, ctx)
        if d is not None and sa and sb:
            assert d == (not (sa & sb))
        c = section_contains(a, b, ctx)
        if c is True and sb:
            assert sb <= sa
        inter = section_intersect(a, b, ctx)
        union = section_union_hull(a, b, ctx)
        ilo, ihi = inter.dims[0].lo.value, inter.dims[0].hi.value
        ulo, uhi = union.dims[0].lo.value, union.dims[0].hi.value
        if sa & sb:
            assert set(range(ilo, ihi + 1)) == (sa & sb)
        if sa and sb:
            assert set(range(ulo, uhi + 1)) >= (sa | sb)
            assert ulo == min(lo1, lo2) and uhi == max(hi1, hi2)
