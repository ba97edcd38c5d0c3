"""Persistent content-addressed artifact store under ``.repro-cache/``.

An *artifact* is the JSON-serializable outcome of a job (a derived
procedure's pretty text and fingerprint, a check summary, bench
timings).  Entries are addressed by a **key**: a nested tuple built by
:func:`repro.serve.jobs.job_key` from ``(input IR fingerprint, pass
recipe + options, context facts, store schema version, job kind)``.
The key is canonicalized (:func:`canonical_key`) and hashed to a sha256
digest, which names the file: ``objects/<aa>/<digest>.art``.

Durability discipline — the part that must not be fudged:

- **atomic publish**: writers serialize into a temp file in the same
  directory and ``os.replace`` it into place, so readers never observe
  a torn entry and concurrent writers of the same key are last-writer-
  wins with either writer's bytes valid;
- **verified reads**: every entry carries a magic header and a sha256
  checksum of its payload; a short, truncated, or garbage file fails
  verification and is treated as a *miss* (and unlinked best-effort) —
  corruption can cost a recomputation, never a crash;
- **schema versioning**: :data:`SCHEMA_VERSION` participates in the
  digest, so bumping it orphans (invalidates) every old entry without
  touching the files; ``gc`` reaps them by age/count later.

``stats()`` reports in-process counters (hits/misses/writes/corrupt)
plus an on-disk scan (entries, bytes); ``gc()`` prunes by entry count
(oldest first) and/or age.  The same counters also feed the active
:mod:`repro.obs` observer (``store.hits`` / ``store.misses`` /
``store.writes`` / ``store.corrupt``), and reads/writes show up as
``store:get`` / ``store:put`` spans in metrics exports and Chrome
traces — no-ops when observation is off.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Optional

from repro.artifacts.flatten import Sink
from repro.artifacts.shape import enum, nullable
from repro.errors import PipelineError
from repro.obs import core as _obs

#: bump to invalidate every existing artifact (participates in the digest)
SCHEMA_VERSION = 1

#: default store root; override with the ``REPRO_CACHE_DIR`` environment
#: variable or the ``root`` constructor argument
DEFAULT_ROOT = ".repro-cache"

_MAGIC = b"repro-store/1\n"
_SUFFIX = ".art"


def canonical_key(key: Any) -> str:
    """A deterministic text form of a nested key structure.

    Dicts are sorted by key, lists and tuples flattened alike; scalars
    use ``repr``.  Two keys canonicalize equally iff they address the
    same artifact.
    """
    return repr(_canon(key))


def _canon(obj: Any):
    if isinstance(obj, dict):
        return ("d",) + tuple((str(k), _canon(obj[k])) for k in sorted(obj, key=str))
    if isinstance(obj, (list, tuple)):
        return ("t",) + tuple(_canon(v) for v in obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, Fraction):  # Affine coefficients in context facts
        return ("q", obj.numerator, obj.denominator)
    raise TypeError(f"cannot canonicalize {type(obj).__name__} in a store key")


def facts_component(ctx) -> tuple:
    """``ctx.facts_key()`` as a store-key component: every number a
    ``Fraction``, so :func:`_canon` spells it ``("q", n, d)`` — the text
    every existing store is keyed under — whatever type ``Affine`` holds."""

    def q(obj):
        if isinstance(obj, tuple):
            return tuple(q(v) for v in obj)
        return obj if isinstance(obj, str) else Fraction(obj)

    return q(ctx.facts_key())


def key_digest(key: Any, schema_version: int = SCHEMA_VERSION) -> str:
    """sha256 hex name of ``key`` under ``schema_version`` — the address
    shared by store files, in-flight pool jobs and matrix report rows."""
    text = f"v{schema_version}|{canonical_key(key)}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_entry(blob: bytes):
    """The one reader of the on-disk format: ``(schema version, canonical
    key text, value)`` of an entry whose magic, checksum and pickle all
    verify, else ``_CORRUPT``."""
    header_len = len(_MAGIC) + 64 + 1
    if len(blob) < header_len or not blob.startswith(_MAGIC):
        return _CORRUPT
    body = blob[header_len:]
    if hashlib.sha256(body).hexdigest().encode("ascii") != blob[len(_MAGIC) : header_len - 1]:
        return _CORRUPT
    try:
        doc = pickle.loads(body)
        return doc["schema_version"], doc["key"], doc["value"]
    except Exception:
        return _CORRUPT


class ArtifactStore:
    """One on-disk store rooted at ``root`` (``.repro-cache/`` by default)."""

    def __init__(
        self,
        root: Optional[str] = None,
        schema_version: int = SCHEMA_VERSION,
    ) -> None:
        self.root = Path(
            root
            if root is not None
            else os.environ.get("REPRO_CACHE_DIR", DEFAULT_ROOT)
        )
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    # ---- addressing -------------------------------------------------------
    def digest(self, key: Any) -> str:
        """:func:`key_digest` under this store's schema version."""
        return key_digest(key, self.schema_version)

    def path_for(self, key: Any) -> Path:
        d = self.digest(key)
        return self.root / "objects" / d[:2] / (d + _SUFFIX)

    # ---- read/write -------------------------------------------------------
    def get(self, key: Any) -> tuple[bool, Any]:
        """``(hit, value)``; any unreadable or corrupted entry is a miss."""
        path = self.path_for(key)
        with _obs.span("store:get", cat="store") as span_args:
            try:
                blob = path.read_bytes()
            except OSError:
                self.misses += 1
                _obs.count("store.misses")
                span_args["hit"] = False
                return False, None
            value = self._decode(blob, key)
            if value is _CORRUPT:
                self.corrupt += 1
                self.misses += 1
                _obs.count("store.corrupt")
                _obs.count("store.misses")
                span_args["hit"] = False
                try:  # reap the bad entry so it cannot fail again
                    path.unlink()
                except OSError:
                    pass
                return False, None
            self.hits += 1
            _obs.count("store.hits")
            span_args["hit"] = True
            return True, value

    def put(self, key: Any, value: Any) -> Path:
        """Atomically publish ``value`` under ``key``; returns the path."""
        with _obs.span("store:put", cat="store"):
            return self._put(key, value)

    def _put(self, key: Any, value: Any) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = pickle.dumps(
            {
                "schema_version": self.schema_version,
                "key": canonical_key(key),
                "created_s": time.time(),
                "value": value,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        blob = _MAGIC + hashlib.sha256(body).hexdigest().encode("ascii") + b"\n" + body
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-", suffix=_SUFFIX, dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            os.replace(tmp, path)  # atomic: readers see old bytes or new
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.writes += 1
        _obs.count("store.writes")
        return path

    def _decode(self, blob: bytes, key: Any):
        entry = _read_entry(blob)
        if entry is _CORRUPT or entry[:2] != (self.schema_version, canonical_key(key)):
            return _CORRUPT
        return entry[2]

    # ---- maintenance ------------------------------------------------------
    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, size, path) for every object file, oldest first."""
        out = []
        objects = self.root / "objects"
        if not objects.is_dir():
            return out
        for sub in objects.iterdir():
            if not sub.is_dir():
                continue
            for p in sub.iterdir():
                if p.name.startswith(".tmp-") or p.suffix != _SUFFIX:
                    continue
                try:
                    st = p.stat()
                except OSError:
                    continue
                out.append((st.st_mtime, st.st_size, p))
        out.sort()
        return out

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Yield ``(canonical key text, value)`` for every entry that
        passes checksum verification — enumeration without knowing the
        keys (``python -m repro artifacts ls``).  Corrupt entries are
        skipped (and counted), not unlinked: a reader that cannot name
        the key should not reap the file."""
        for _, _, path in self._entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            entry = _read_entry(blob)
            if entry is _CORRUPT:
                self.corrupt += 1
            elif entry[0] == self.schema_version:
                yield entry[1], entry[2]

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "root": str(self.root),
            "schema_version": self.schema_version,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries),
        }

    def gc(
        self,
        max_entries: Optional[int] = None,
        max_age_s: Optional[float] = None,
    ) -> dict:
        """Prune by age and/or count (oldest first); returns a summary.
        A negative bound is a :class:`PipelineError`: it would prune
        everything."""
        for flag, bound in (("max_entries", max_entries), ("max_age_s", max_age_s)):
            if bound is not None and bound < 0:
                raise PipelineError(f"gc: {flag} must be >= 0, got {bound}")
        entries = self._entries()
        doomed: list[Path] = []
        if max_age_s is not None:
            cutoff = time.time() - max_age_s
            doomed.extend(p for mtime, _, p in entries if mtime < cutoff)
        if max_entries is not None and len(entries) > max_entries:
            keep_from = len(entries) - max_entries
            doomed.extend(p for _, _, p in entries[:keep_from])
        removed = 0
        for p in dict.fromkeys(doomed):  # de-dup, preserve order
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return {
            "removed": removed,
            "kept": len(entries) - removed,
        }

    def clear(self) -> int:
        """Remove every entry (counters untouched); returns count removed."""
        removed = 0
        for _, _, p in self._entries():
            try:
                p.unlink()
                removed += 1
            except OSError:
                pass
        return removed


class _Corrupt:
    """Sentinel: decode failed (distinct from a stored None)."""


_CORRUPT = _Corrupt()


# ---------------------------------------------------------------------------
# store maintenance records (the ``serve stats`` / ``serve gc`` subcommands)
# ---------------------------------------------------------------------------

def build_store_ops(op: str, store: ArtifactStore,
                    gc: Optional[dict] = None) -> dict:
    """The ``repro.serve.store/1`` payload for one maintenance
    operation: a ``stats`` snapshot, or a ``gc`` outcome
    (:meth:`ArtifactStore.gc`'s summary) plus the post-collection
    snapshot."""
    stats = store.stats()
    return {
        "op": op,
        "store": {k: stats[k] for k in
                  ("root", "schema_version", "entries", "bytes")},
        "gc": gc,
    }


STORE_SHAPE = {
    "op": enum("stats", "gc"),
    "store": {"root": str, "entries": int, "bytes": int},
    "gc": nullable({"removed": int, "kept": int}),
}


def store_invariants(doc: dict) -> list[str]:
    """A ``gc`` record carries its ``gc`` outcome."""
    if doc["op"] == "gc" and doc.get("gc") is None:
        return ["gc: missing, but op is 'gc'"]
    return []


def flatten_store_ops(doc: dict) -> dict:
    """Flat perf metrics for a store-maintenance payload — the
    registered perf ingestion hook for ``repro.serve.store/1``."""
    sink = Sink()
    store = doc.get("store") or {}
    for key in ("entries", "bytes"):
        sink.put(f"store:{key}", store.get(key))
    gc = doc.get("gc")
    if isinstance(gc, dict):
        for key in ("removed", "kept"):
            sink.put(f"store:gc.{key}", gc.get(key))
    return sink.metrics
