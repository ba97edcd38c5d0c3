"""Set-associative LRU cache simulator.

Deliberately minimal: tags are held per set in an insertion-ordered dict
(LRU first, MRU last), driven either one element touch at a time
(``access(addr, is_write)``) or a chunk of the trace at a time
(``access_many(addrs, writes)``) — the two share the state and may be
interleaved freely.  Geometry is validated up front
(:class:`repro.errors.MachineError` on nonsense), and the write policy is
write-back / write-allocate — the policy of the RS/6000's data cache and
of essentially every machine the paper targets.

The simulator is exact for the properties the reproduction needs:

- miss counts for a given trace (the quantity behind every speedup table);
- dirty-eviction (write-back) counts, reported but not charged by default;
- an LRU stack property: a larger cache with identical line size and
  full associativity never misses more on the same trace (tested in
  ``tests/properties/test_cache_and_sections.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MachineError


WINDOW_FLOOR = 512
"""Accesses (same-line runs already collapsed) below which
:meth:`Cache.access_many` stops halving a stretch of a one-set cache's chunk
and replays it access by access.  A constant like ``runtime.codegen.CHUNK``:
no count depends on it."""

WINDOW_GAIN = 16
"""Accesses per distinct line that a stretch must have to be settled as a
window; below that the scatters cost about what the replay they save does."""


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry.

    ``assoc=0`` means fully associative.  ``size_bytes`` and ``line_bytes``
    must be powers of two (address-splitting uses shifts/masks).
    """

    size_bytes: int
    line_bytes: int
    assoc: int = 4

    def __post_init__(self) -> None:
        if not _is_pow2(self.size_bytes) or not _is_pow2(self.line_bytes):
            raise MachineError("cache size and line size must be powers of two")
        if self.line_bytes > self.size_bytes:
            raise MachineError("line larger than cache")
        n_lines = self.size_bytes // self.line_bytes
        if self.assoc < 0 or (self.assoc and self.assoc > n_lines):
            raise MachineError("bad associativity")
        if self.assoc and n_lines % self.assoc != 0:
            raise MachineError("line count not divisible by associativity")

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    @property
    def n_sets(self) -> int:
        return 1 if self.assoc == 0 else self.n_lines // self.assoc

    @property
    def ways(self) -> int:
        return self.n_lines if self.assoc == 0 else self.assoc

    def describe(self) -> str:
        a = "fully-assoc" if self.assoc == 0 else f"{self.assoc}-way"
        return f"{self.size_bytes // 1024}KB, {self.line_bytes}B lines, {a}"


@dataclass
class CacheStats:
    """Running counters; ``miss_ratio`` guards against empty traces."""

    accesses: int = 0
    misses: int = 0
    reads: int = 0
    writes: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            self.accesses + other.accesses,
            self.misses + other.misses,
            self.reads + other.reads,
            self.writes + other.writes,
            self.writebacks + other.writebacks,
        )

    def to_dict(self) -> dict:
        """JSON form; ``hits``/``miss_ratio`` are derived and included for
        readers, ignored by :meth:`from_dict`."""
        return {
            "accesses": self.accesses,
            "misses": self.misses,
            "reads": self.reads,
            "writes": self.writes,
            "writebacks": self.writebacks,
            "hits": self.hits,
            "miss_ratio": self.miss_ratio,
        }

    @staticmethod
    def from_dict(d: dict) -> "CacheStats":
        return CacheStats(
            accesses=int(d.get("accesses", 0)),
            misses=int(d.get("misses", 0)),
            reads=int(d.get("reads", 0)),
            writes=int(d.get("writes", 0)),
            writebacks=int(d.get("writebacks", 0)),
        )


class Cache:
    """Trace-driven cache with LRU replacement.

    Per-set state is an insertion-ordered dict mapping resident line tags
    to their dirty bit; the most recently used tag sits at the *end*, so
    both the hit path (delete + reinsert) and the eviction path (pop the
    first key) are O(1) — fully associative configurations (the TLB model)
    stay fast.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._n_sets = config.n_sets
        self._ways = config.ways
        self._sets: list[dict[int, bool]] = [{} for _ in range(self._n_sets)]

    def reset(self) -> None:
        """Clear contents and statistics."""
        self.stats = CacheStats()
        self._sets = [{} for _ in range(self._n_sets)]

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Touch one byte address; returns True on hit."""
        line = addr >> self._line_shift
        ways = self._sets[line % self._n_sets]
        st = self.stats
        st.accesses += 1
        if is_write:
            st.writes += 1
        else:
            st.reads += 1
        if line in ways:
            dirty = ways.pop(line)  # move to MRU (end)
            ways[line] = dirty or is_write
            return True
        # miss: allocate (write-allocate policy), maybe evict LRU
        st.misses += 1
        if len(ways) >= self._ways:
            victim = next(iter(ways))
            if ways.pop(victim):
                st.writebacks += 1
        ways[line] = is_write
        return False

    def access_many(
        self, addrs: np.ndarray, writes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Touch ``addrs`` (byte addresses; ``writes`` the matching write
        flags) in order; returns two flags per access: whether it *missed*,
        and whether it evicted a dirty line (triggered a write-back).

        The miss flags are exactly ``[not self.access(a, w) for a, w in
        zip(addrs, writes)]``, state and statistics included, for any split
        of a trace into calls.
        Sets are independent, so the chunk is stable-sorted by set and each
        set sees its own accesses in program order.  Within a set, a run of
        consecutive accesses to one line collapses to a single LRU update:
        the run's first access alone decides hit or miss (and evicts), every
        later one finds the line it just left at MRU and hits, and the line
        ends at MRU with dirty = previous dirty OR any write of the run.
        Only the surviving runs go through the Python loop.

        A cache of one set (every TLB) goes further, because there runs do
        not collapse when a loop alternates between two or three pages.  Take
        a *window*: a stretch of the chunk whose distinct lines number at
        most ``ways``.  A line touched in the window is younger than every
        line not yet touched in it, and when a window line misses, at most
        ``ways - 1`` touched lines are resident; so if the set is full, its
        LRU line is an untouched one.  No touched line is evicted inside the
        window, hence none misses twice: the LRU loop is needed at each
        line's *first* touch only — in that order, because the victims, and
        whether a line that was resident at the start still is at its first
        touch, depend on it.  Untouched lines keep their relative order and
        dirty bits, so victims and write-back flags are those of the full
        replay.  Afterwards the window's lines sit at the MRU end in
        last-touch order with dirty = previous dirty OR any write in the
        window, which is what replaying them once more in that order, with
        those flags, leaves (all hits).  First touch, last touch and
        any-write per line come from O(n) scatters over ``line - lowest
        line``; there is no sort of the window.  A stretch with too many
        distinct lines (or fewer than ``WINDOW_GAIN`` accesses per line,
        where the scatters cost what they save) is halved, down to
        ``WINDOW_FLOOR`` accesses, below which it goes through the loop as
        before: a row walk across more pages than the TLB has entries costs
        what it did.
        """
        n = len(addrs)
        miss, wrote_back = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        if n == 0:
            return miss, wrote_back
        lines = np.asarray(addrs, dtype=np.int64) >> self._line_shift
        writes = np.asarray(writes, dtype=bool)
        if self._n_sets > 1:
            order = np.argsort(lines % self._n_sets, kind="stable")
            lines, dirtying = lines[order], writes[order]
        else:
            order, dirtying = None, writes
        # a new run starts wherever the line changes (a change of set is one)
        starts = np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))
        run_lines = lines[starts]
        run_writes = np.logical_or.reduceat(dirtying, starts)
        if self._n_sets == 1:
            outcomes = np.empty(len(starts), dtype=np.uint8)
            self._windows(run_lines, run_writes, outcomes)
        else:
            outcomes = np.array(self._replay(run_lines, run_writes), dtype=np.uint8)

        first = starts if order is None else order[starts]
        miss[first] = outcomes > 0
        wrote_back[first] = outcomes == 2
        st = self.stats
        n_writes = int(np.count_nonzero(writes))
        st.accesses += n
        st.writes += n_writes
        st.reads += n - n_writes
        st.misses += int(np.count_nonzero(miss))
        st.writebacks += int(np.count_nonzero(wrote_back))
        return miss, wrote_back

    def _replay(self, lines: np.ndarray, writes: np.ndarray) -> list[int]:
        """One LRU update per access; per access 0 for a hit, 1 for a miss,
        2 for a miss that evicted a dirty line."""
        sets, n_sets, capacity = self._sets, self._n_sets, self._ways
        outcomes = []
        outcome = outcomes.append
        for line, is_write in zip(lines.tolist(), writes.tolist()):
            ways = sets[line % n_sets]
            if line in ways:
                ways[line] = ways.pop(line) or is_write  # move to MRU (end)
                outcome(0)
                continue
            if len(ways) >= capacity and ways.pop(next(iter(ways))):
                outcome(2)
            else:
                outcome(1)
            ways[line] = is_write
        return outcomes

    def _windows(self, lines: np.ndarray, writes: np.ndarray, outcomes: np.ndarray) -> None:
        """:meth:`_replay` for a cache of one set, into ``outcomes``.  A
        stretch that touches at most ``ways`` distinct lines is a *window*:
        it is settled by replaying those lines alone, in first-touch and
        then in last-touch order (:meth:`access_many` has the argument).
        One that touches too many is halved, a short one is replayed."""
        m = len(lines)
        if m < WINDOW_FLOOR:
            outcomes[:] = self._replay(lines, writes)
            return
        lowest = int(lines.min())
        rel = lines - lowest
        span = int(rel.max()) + 1
        if span <= m:  # the per-line tables are no longer than the stretch
            # first and last touch of every line by scatter, where a
            # repeated index keeps the last value assigned
            at = np.arange(m)
            last = np.full(span, -1)
            last[rel] = at
            touched = np.flatnonzero(last >= 0)
            if len(touched) <= self._ways and len(touched) * WINDOW_GAIN <= m:
                first = np.empty(span, dtype=np.intp)
                first[rel[::-1]] = at[::-1]
                wrote = np.zeros(span, dtype=bool)
                wrote[rel[writes]] = True
                by_first = touched[np.argsort(first[touched])]
                by_last = touched[np.argsort(last[touched])]
                outcomes[:] = 0
                outcomes[first[by_first]] = self._replay(
                    by_first + lowest, np.zeros(len(touched), dtype=bool)
                )
                self._replay(by_last + lowest, wrote[by_last])  # all hits
                return
        half = m // 2
        self._windows(lines[:half], writes[:half], outcomes[:half])
        self._windows(lines[half:], writes[half:], outcomes[half:])

    def contains(self, addr: int) -> bool:
        """Non-mutating lookup (no LRU update, no counters)."""
        line = addr >> self._line_shift
        return line in self._sets[line % self._n_sets]

    @property
    def resident_lines(self) -> int:
        return sum(len(w) for w in self._sets)
