"""Content-addressed memoization of the expensive analyses.

The pipeline's hot paths are all *re-analysis*: every transformation
round re-derives dependences, re-runs Fourier–Motzkin feasibility, and
re-computes array sections over procedure trees that repeat from round
to round.  Every analysis query goes through one function,
:func:`repro.analysis.feasibility.memo_query`, which asks the one
installed :class:`AnalysisCache` (the module slot
``repro.analysis.feasibility._memo_cache``) for the answer of a named region:
``dependence``, ``relative``, ``feasibility``, ``direction`` or
``sections``.  A sixth region, ``passes``, holds whole-pass results for
the :class:`~repro.pipeline.manager.PassManager`.

Keying discipline — this is the part that must not be fudged:

- ``dependence`` results embed loop *node references* that downstream
  consumers (``DependenceGraph``, ``relative_deps``) compare by
  identity (``is``), so they are cached per root *object*
  (``id(root)``, with a strong reference pinned so the id cannot be
  recycled) — reuse across calls on the same tree, never across
  structurally-equal copies.  ``relative`` holds each loop's relative
  dependences (the statement graph's edges) per loop *object* and
  context facts, pinned the same way: distribution, IndexSetSplit and
  the linter ask for them several times per loop.
- ``feasibility``, ``direction``, and ``sections`` results are plain
  values (bools, frozen ``Section`` trees) computed from structural
  content only, so they are keyed by structural fingerprints
  (:func:`repro.ir.ir_fingerprint`, ``Affine`` coefficient tuples,
  :meth:`Assumptions.facts_key`) and shared across equal trees, which
  is where the second-derivation-of-the-same-procedure wins come from.
- ``passes`` maps ``(pass name, options, input fingerprint, context
  facts)`` to the pass's outcome and, once a checked run judged it, its
  check findings; see the manager.  The fingerprint memo also holds
  ``ir_size``, and ``verified`` holds input ``verify_ir`` findings.

Every memo is a dict under one bound, :func:`bounded_put`: a full memo
is emptied before it grows (``_MEMO_CAP`` entries).  ``stats()`` reports
five regions; ``relative``, the fingerprint memo and ``verified`` stay
out of it.

Install a cache with :func:`install`/:func:`uninstall` or the
:func:`installed` context manager; the manager does this around every
run.  ``GLOBAL_CACHE`` is the default shared instance.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Optional

from repro.analysis import feasibility as _feasibility
from repro.ir.fingerprint import ir_fingerprint, ir_size
from repro.symbolic.assume import Assumptions

#: entries one memo holds before :func:`bounded_put` empties it
_MEMO_CAP = 8192


def bounded_put(memo: dict, key, value):
    """``memo[key] = value`` (returned); a full ``memo`` is emptied first."""
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value
    return value


class CacheRegion:
    """One memo dict with hit and miss counters, bounded by :func:`bounded_put`."""

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.memo: dict = {}

    def __len__(self) -> int:
        return len(self.memo)

    def get_or(self, key, compute: Callable[[], object]):
        hit, value = self.peek(key)
        return value if hit else bounded_put(self.memo, key, compute())

    def peek(self, key):
        """Like get_or without compute: (hit, value)."""
        try:
            value = self.memo[key]
        except KeyError:
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key, value) -> None:
        bounded_put(self.memo, key, value)

    def clear(self) -> None:
        self.hits = self.misses = 0
        self.memo.clear()

    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self.memo),
            "hit_rate": (self.hits / total) if total else 0.0,
        }


class AnalysisCache:
    """The full cache: analysis regions + fingerprint memo + pass memo."""

    REGIONS = ("dependence", "direction", "feasibility", "sections", "passes")

    def __init__(self) -> None:
        self.dependence = CacheRegion()
        self.direction = CacheRegion()
        self.feasibility = CacheRegion()
        self.sections = CacheRegion()
        self.passes = CacheRegion()
        self.relative = CacheRegion()  # not in REGIONS: left out of stats()
        # id -> [node, fingerprint, size or None]; the node keeps the id valid.
        self._fp_memo: dict[int, list] = {}
        # (fingerprint, context facts) -> the input's verify_ir findings
        self.verified: dict = {}

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

    # ---- analysis queries -------------------------------------------------
    def query(self, region: str, compute: Callable, args: tuple):
        """``compute(*args)``, remembered in ``region`` (what
        :func:`~repro.analysis.feasibility.memo_query` asks)."""
        memo = getattr(self, region)
        if region in ("dependence", "relative"):
            # keyed by the root object (args[0]); the entry carries the
            # root so the id() key cannot be recycled while the entry lives
            root, ctx = args
            entry = memo.get_or(
                (id(root), self._ctx_key(ctx)), lambda: (root, compute(*args))
            )
            return list(entry[1])
        return memo.get_or(getattr(self, f"_{region}_key")(*args), lambda: compute(*args))

    @staticmethod
    def _feasibility_key(constraints) -> tuple:
        return tuple((c.coeffs, c.const) for c in constraints)

    def _direction_key(self, a, b, directions, common, ctx, pinned) -> tuple:
        return (
            self._access_key(a),
            self._access_key(b),
            tuple(directions),
            tuple(l.var for l in common),
            tuple(sorted(pinned)),
            self._ctx_key(ctx),
        )

    def _sections_key(self, acc, region_loops, ctx) -> tuple:
        return (
            acc.array,
            self.fingerprint(acc.ref),
            self._loops_key(region_loops),
            self._ctx_key(ctx),
        )

    # ---- bookkeeping ------------------------------------------------------
    def stats(self) -> dict:
        return {name: getattr(self, name).stats() for name in self.REGIONS}

    def clear(self) -> None:
        for name in (*self.REGIONS, "relative"):
            getattr(self, name).clear()
        self._fp_memo.clear()
        self.verified.clear()


GLOBAL_CACHE = AnalysisCache()

# install()/uninstall() nest: the installed caches, innermost last.
_stack: list[AnalysisCache] = []


def install(cache: AnalysisCache) -> None:
    """Make ``cache`` the one every analysis query asks (reentrant)."""
    _stack.append(cache)
    _feasibility._memo_cache = cache


def uninstall() -> None:
    """Reinstate the cache from before the matching :func:`install`."""
    if _stack:
        _stack.pop()
    _feasibility._memo_cache = _stack[-1] if _stack else None


@contextmanager
def installed(cache: AnalysisCache):
    """``with installed(cache): ...`` — installation as a scope."""
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
    if _stack:
        yield
    else:
        with installed(AnalysisCache()):
            yield
