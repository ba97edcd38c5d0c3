"""The shape/invariants/flattener registry and the schema-id constants.

This module is the **single source of truth for schema ids**: every
subsystem imports its id from here (``SCHEMA = registry.CHECK_REPORT``)
instead of repeating the string literal, so the acceptance grep
``'"repro\\.'`` finds schema ids defined nowhere else.

Each schema registers an :class:`ArtifactKind` — ``(name, version,
shape, invariants, flatten)`` — exactly once.  ``shape`` is the payload's
structure as a plain literal (:mod:`repro.artifacts.shape`), declared as
``SHAPE`` next to the ``build_*`` function that produces the payload;
``invariants`` is the kind's cross-field check (``payload -> [problems]``:
recounts, implications between fields), where it has one; ``flatten`` is
the :mod:`repro.perf` ingestion hook that turns a payload into flat
``{metric name: float}`` rows.  :meth:`ArtifactKind.validate_payload`
walks the shape and, **only if the shape is clean**, runs the
invariants — so invariant code indexes the payload directly and cannot
crash on a malformed one.

All three are declared as lazy ``"module:attr"`` references and resolved
on first use, so validating one artifact kind does not import the other
subsystems.  The builtin kinds live in :mod:`repro.artifacts.kinds`,
loaded on the first registry query.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Optional

from repro.artifacts.envelope import split_id
from repro.artifacts.shape import check
from repro.errors import ArtifactError

# ---- schema ids (the only place these strings are defined) -----------------

PIPELINE_TRACE = "repro.pipeline/1"
PIPELINE_BENCH = "repro.pipeline.bench/1"
OBS_METRICS = "repro.obs/1"
OBS_SNAPSHOT = "repro.obs.snapshot/1"
CHECK_REPORT = "repro.check/1"
MATRIX_REPORT = "repro.matrix/1"
PERF_GATE = "repro.perf.gate/1"
PERF_BASELINE = "repro.perf.baseline/1"
PAR_REPORT = "repro.par/1"
DAEMON_STATUS = "repro.daemon.status/1"
SERVE_LOAD = "repro.serve.load/1"
SERVE_STORE = "repro.serve.store/1"


def _resolve(ref: Any) -> Any:
    if not isinstance(ref, str):
        return ref
    mod, sep, attr = ref.partition(":")
    if not sep:
        raise ArtifactError(f"bad hook reference {ref!r} (want 'module:attr')")
    return getattr(import_module(mod), attr)


class ArtifactKind:
    """One registered schema: id, payload shape, invariants, flattener."""

    def __init__(
        self,
        schema_id: str,
        shape: Any = dict,
        invariants: Optional[str] = None,
        flatten: Optional[str] = None,
        description: str = "",
    ) -> None:
        self.name, self.version = split_id(schema_id)
        self.description = description
        self._shape = shape
        self._invariants = invariants
        self._flatten = flatten

    @property
    def schema_id(self) -> str:
        return f"{self.name}/{self.version}"

    @property
    def shape(self) -> Any:
        """The payload's declared shape (:mod:`repro.artifacts.shape`)."""
        self._shape = _resolve(self._shape)
        return self._shape

    def validate_payload(self, payload: Any) -> list[str]:
        """Problems with ``payload`` (empty = valid): the shape walk,
        then — on a shape-clean payload only — the kind's invariants.
        Never raises, whatever JSON value ``payload`` is."""
        problems = check(payload, self.shape)
        if problems or self._invariants is None:
            return problems
        self._invariants = _resolve(self._invariants)
        return list(self._invariants(payload))

    @property
    def flatten(self) -> Optional[Callable]:
        """``payload -> {metric name: float}``, or None when the kind
        has nothing numeric worth a timeline."""
        self._flatten = _resolve(self._flatten)
        return self._flatten

    def __repr__(self) -> str:  # pragma: no cover
        return f"ArtifactKind({self.schema_id!r})"


_KINDS: dict[str, ArtifactKind] = {}
_builtins_loaded = False


def register(
    schema_id: str,
    shape: Any = dict,
    invariants: Optional[str] = None,
    flatten: Optional[str] = None,
    description: str = "",
) -> ArtifactKind:
    """Register a schema once; :class:`ArtifactError` on a duplicate id."""
    kind = ArtifactKind(schema_id, shape=shape, invariants=invariants,
                        flatten=flatten, description=description)
    if kind.schema_id in _KINDS:
        raise ArtifactError(f"schema {kind.schema_id!r} is already registered")
    _KINDS[kind.schema_id] = kind
    return kind


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        from repro.artifacts import kinds  # noqa: F401  (self-registers)


def lookup(schema_id: Optional[str]) -> Optional[ArtifactKind]:
    """The registered kind for a full ``name/version`` id, or None."""
    _ensure_builtins()
    if not isinstance(schema_id, str):
        return None
    return _KINDS.get(schema_id)


def get(schema_id: str) -> ArtifactKind:
    """Like :func:`lookup` but raises :class:`ArtifactError` (with the
    known-ids list in the message) for an unregistered id."""
    kind = lookup(schema_id)
    if kind is None:
        known = ", ".join(known_ids())
        raise ArtifactError(
            f"unregistered artifact schema {schema_id!r} (known: {known})"
        )
    return kind


def known_ids() -> list[str]:
    """Every registered schema id, sorted."""
    _ensure_builtins()
    return sorted(_KINDS)


def versions_of(name: str) -> list[int]:
    """Registered versions of a kind name (for stale-version diagnosis)."""
    _ensure_builtins()
    return sorted(k.version for k in _KINDS.values() if k.name == name)
