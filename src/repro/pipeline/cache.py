"""Content-addressed memoization of the expensive analyses.

The pipeline's hot paths are all *re-analysis*: every transformation
round re-derives dependences, re-runs Fourier–Motzkin feasibility, and
re-computes array sections over procedure trees that repeat from round
to round.  :class:`AnalysisCache` memoizes four analysis layers behind
hooks that the analysis modules expose
(:data:`repro.analysis.dependence._memo_hook` and friends), plus a
fifth region for whole-pass results used by the
:class:`~repro.pipeline.manager.PassManager`.

Keying discipline — this is the part that must not be fudged:

- ``dependence`` results embed loop *node references* that downstream
  consumers (``DependenceGraph``, ``relative_deps``) compare by
  identity (``is``), so they are cached per root *object*
  (``id(root)``, with a strong reference pinned so the id cannot be
  recycled) — reuse across calls on the same tree, never across
  structurally-equal copies.
- ``feasibility``, ``direction``, and ``sections`` results are plain
  values (bools, frozen ``Section`` trees) computed from structural
  content only, so they are keyed by structural fingerprints
  (:func:`repro.ir.ir_fingerprint`, ``Affine`` coefficient tuples,
  :meth:`Assumptions.facts_key`) and shared across equal trees, which
  is where the second-derivation-of-the-same-procedure wins come from.
- ``passes`` maps ``(pass name, options, input fingerprint, context
  facts)`` to the pass's outcome and, once a checked run judged it, its
  check findings; see the manager.  Off the counted regions, the
  fingerprint memo also holds ``ir_size`` and ``verified`` input
  ``verify_ir`` findings.
- ``relative``, also uncounted, holds each loop's relative dependences
  (the statement graph's edges) per loop *object* and context facts,
  pinned like ``dependence``: distribution, IndexSetSplit and the linter
  ask for them several times per loop.

Install the hooks with :func:`install`/:func:`uninstall` or the
:func:`installed` context manager; the manager does this around every
run.  ``GLOBAL_CACHE`` is the default shared instance.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Optional

from repro.analysis import dependence as _dependence
from repro.analysis import feasibility as _feasibility
from repro.analysis import graph as _graph
from repro.analysis import sections as _sections
from repro.ir.fingerprint import ir_fingerprint, ir_size
from repro.symbolic.assume import Assumptions

_FP_MEMO_CAP = 8192
_REGION_CAP = 65536


def bounded_put(memo: dict, key, value):
    """``memo[key] = value`` (returned); a full ``memo`` is emptied first."""
    if len(memo) >= _FP_MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


class CacheRegion:
    """One keyed store with hit/miss/eviction counters and an LRU bound.

    The region never holds more than ``cap`` entries: inserting into a
    full region evicts the least-recently-*used* entry (hits refresh
    recency), one at a time, so a long-running service converges on its
    working set instead of flushing it wholesale or growing without
    limit.  ``evictions`` counts what the bound cost.
    """

    def __init__(self, name: str, cap: int = _REGION_CAP):
        if cap < 1:
            raise ValueError(f"region {name!r} needs cap >= 1, got {cap}")
        self.name = name
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._store: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._store)

    def get_or(self, key, compute: Callable[[], object]):
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self.put(key, value)
            return value
        self.hits += 1
        self._store.move_to_end(key)
        return value

    def peek(self, key):
        """Like get_or without compute: (hit, value)."""
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            return False, None
        self.hits += 1
        self._store.move_to_end(key)
        return True, value

    def put(self, key, value) -> None:
        if key not in self._store and len(self._store) >= self.cap:
            self._store.popitem(last=False)  # least recently used
            self.evictions += 1
        self._store[key] = value
        self._store.move_to_end(key)

    def clear(self) -> None:
        self.hits = self.misses = self.evictions = 0
        self._store.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._store),
            "evictions": self.evictions,
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class AnalysisCache:
    """The full cache: analysis regions + fingerprint memo + pass memo.

    ``region_cap`` bounds every region (LRU, see :class:`CacheRegion`);
    the default suits batch derivations — a long-running service can
    pass something smaller and watch ``stats()[region]["evictions"]``.
    """

    REGIONS = ("dependence", "direction", "feasibility", "sections", "passes")

    def __init__(self, region_cap: Optional[int] = None) -> None:
        cap = region_cap if region_cap is not None else _REGION_CAP
        self.dependence = CacheRegion("dependence", cap)
        self.direction = CacheRegion("direction", cap)
        self.feasibility = CacheRegion("feasibility", cap)
        self.sections = CacheRegion("sections", cap)
        self.passes = CacheRegion("passes", cap)
        # id -> [node, fingerprint, size or None]; the node keeps the id valid.
        self._fp_memo: dict[int, list] = {}
        # (fingerprint, context facts) -> the input's verify_ir findings
        self.verified: dict = {}
        # (id(loop), context facts) -> (loop, its relative dependences)
        self.relative: dict = {}

    # ---- identity memo ----------------------------------------------------
    def _slot(self, node) -> list:
        got = self._fp_memo.get(id(node))
        if got is None or got[0] is not node:
            got = [node, ir_fingerprint(node), None]
            bounded_put(self._fp_memo, id(node), got)
        return got

    def fingerprint(self, node) -> str:
        """``ir_fingerprint`` memoized per node object."""
        return self._slot(node)[1]

    def size(self, node) -> int:
        """``ir_size`` memoized beside the fingerprint, walked on first ask."""
        slot = self._slot(node)
        if slot[2] is None:
            slot[2] = ir_size(node)
        return slot[2]

    # ---- key builders -----------------------------------------------------
    @staticmethod
    def _ctx_key(ctx: Optional[Assumptions]):
        return ctx.facts_key() if ctx is not None else ()

    def _loops_key(self, loops) -> tuple:
        return tuple(
            (l.var, self.fingerprint(l.lo), self.fingerprint(l.hi), self.fingerprint(l.step))
            for l in loops
        )

    def _access_key(self, acc) -> tuple:
        return (acc.array, self.fingerprint(acc.ref), self._loops_key(acc.loops))

    # ---- analysis hooks ---------------------------------------------------
    def _dep_hook(self, root, ctx, include_input, compute):
        # the entry carries the root so the id() key cannot be recycled
        # while the entry lives — and the pin is dropped with the entry
        # when the LRU bound evicts it
        key = (id(root), self._ctx_key(ctx), include_input)
        hit, entry = self.dependence.peek(key)
        if hit:
            return list(entry[1])
        value = compute(root, ctx, include_input)
        self.dependence.put(key, (root, value))
        return list(value)

    def _relative_hook(self, loop, ctx, compute):
        # pinned like the dependence region: the loop keeps the id valid
        key = (id(loop), self._ctx_key(ctx))
        entry = self.relative.get(key)
        if entry is None:
            entry = bounded_put(self.relative, key, (loop, compute(loop, ctx)))
        return list(entry[1])

    def _feasible_hook(self, constraints, compute):
        key = tuple((c.coeffs, c.const) for c in constraints)
        return self.feasibility.get_or(key, lambda: compute(constraints))

    def _direction_hook(self, a, b, directions, common, ctx, pinned, compute):
        key = (
            self._access_key(a),
            self._access_key(b),
            tuple(directions),
            tuple(l.var for l in common),
            tuple(sorted(pinned)),
            self._ctx_key(ctx),
        )
        return self.direction.get_or(
            key, lambda: compute(a, b, directions, common, ctx, pinned)
        )

    def _section_hook(self, acc, region_loops, ctx, extra_ranges, compute):
        extra_key = (
            tuple(
                sorted(
                    (name, self.fingerprint(lo), self.fingerprint(hi))
                    for name, (lo, hi) in extra_ranges.items()
                )
            )
            if extra_ranges
            else ()
        )
        key = (
            acc.array,
            self.fingerprint(acc.ref),
            self._loops_key(region_loops),
            self._ctx_key(ctx),
            extra_key,
        )
        return self.sections.get_or(
            key, lambda: compute(acc, region_loops, ctx, extra_ranges)
        )

    # ---- bookkeeping ------------------------------------------------------
    def stats(self) -> dict:
        return {name: getattr(self, name).stats() for name in self.REGIONS}

    def clear(self) -> None:
        for name in self.REGIONS:
            getattr(self, name).clear()
        self._fp_memo.clear()
        self.verified.clear()
        self.relative.clear()


GLOBAL_CACHE = AnalysisCache()

# install()/uninstall() nest: each install pushes the hooks it replaced.
_hook_stack: list[tuple] = []


def install(cache: AnalysisCache) -> None:
    """Point the analysis-module hooks at ``cache`` (reentrant)."""
    _hook_stack.append(
        (
            _dependence._memo_hook,
            _feasibility._feasible_memo_hook,
            _feasibility._direction_memo_hook,
            _sections._memo_hook,
            _graph._memo_hook,
        )
    )
    _dependence._memo_hook = cache._dep_hook
    _feasibility._feasible_memo_hook = cache._feasible_hook
    _feasibility._direction_memo_hook = cache._direction_hook
    _sections._memo_hook = cache._section_hook
    _graph._memo_hook = cache._relative_hook


def uninstall() -> None:
    """Restore the hooks from before the matching :func:`install`."""
    prev = _hook_stack.pop() if _hook_stack else (None,) * 5
    (
        _dependence._memo_hook,
        _feasibility._feasible_memo_hook,
        _feasibility._direction_memo_hook,
        _sections._memo_hook,
        _graph._memo_hook,
    ) = prev


@contextmanager
def installed(cache: AnalysisCache):
    """``with installed(cache): ...`` — hook installation as a scope."""
    install(cache)
    try:
        yield cache
    finally:
        uninstall()


@contextmanager
def scoped():
    """Run under the cache already installed, else under a fresh one that
    lives for the scope — for analysis entry points that may be called
    outside any pass manager (the blockability linter)."""
    if _hook_stack:
        yield
    else:
        with installed(AnalysisCache()):
            yield
