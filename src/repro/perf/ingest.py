"""Artifact ingestion and the run history — registry- and store-backed.

A run is **flat numeric metrics**, because a timeline only needs
numbers with stable names.  The per-schema flatteners live with their
subsystems and are registered next to each shape in
:mod:`repro.artifacts.kinds` (``flatten`` hooks); this module is the
perf-side adapter over that registry and the artifact store:

- :func:`load_artifact` reads a JSON artifact file and validates it
  (the file is outside input; an in-memory document handed to
  :func:`flatten` is the caller's own);
- :func:`detect_schema` resolves the envelope's full schema id and
  requires a registered kind *with* a flatten hook (a bare payload is an
  ``artifact/malformed-envelope`` :class:`~repro.errors.PerfError`);
- :func:`flatten` unwraps the envelope and runs the registered hook;
- :func:`record` flattens once and publishes the run to the store as a
  ``repro.perf.baseline/1`` envelope — the document a committed
  baseline is — whose ``meta`` says where the metrics came from
  (``label``, ``source``, ``artifact_schema``, ``artifact_digest``,
  ``git_sha``, ``created_s``).  ``created_s`` is in the payload, so one
  artifact recorded twice is two runs under two digests;
- :func:`runs` reads the history back from ``store.scan()``, oldest
  first, and :func:`select` resolves a run selector: ``latest``,
  ``latest~N``, a label (its most recent run) or a unique envelope
  digest prefix.

Naming convention (stable across runs; the gate patterns match these):

======================  =================================================
prefix                  meaning
======================  =================================================
``pass:<name>.*``       per-pass pipeline spans (``wall_s``,
                        ``ir_size_after``, ``ir_growth``)
``counter:<name>``      an observability counter
``hist:<name>.*``       histogram summary fields (mean/p50/p95/p99/...)
``span:<name>.*``       span aggregates (``total_s``, ``count``,
                        ``max_s``); a served job is ``span:job:<label>``
``cell:<...>.*``        matrix cells, keyed by workload/recipe/geometry
======================  =================================================

Duplicate names within one artifact get ``#2``, ``#3``, ... suffixes in
encounter order (see :class:`repro.artifacts.flatten.Sink`), so reruns
of the same artifact flatten to the same names.  Non-numeric and
non-finite values are skipped — a metric that is sometimes ``null``
simply has gaps in its timeline.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.artifacts import publish, registry
from repro.artifacts.envelope import is_envelope, schema_id_of
from repro.artifacts.envelope import load_file as _load_file
from repro.artifacts.validate import require_valid
from repro.errors import ArtifactError, PerfError
from repro.perf.gate import BASELINE_SCHEMA, baseline_doc

#: the ``meta`` fields of a recorded run besides ``created_s``
_META = ("label", "source", "artifact_schema", "artifact_digest", "git_sha")


def load_artifact(path: str) -> dict:
    """Read a JSON artifact; :class:`PerfError` (carrying every problem
    row) when it is unreadable or fails validation."""
    try:
        return require_valid(_load_file(path))
    except ArtifactError as e:
        raise PerfError(f"{path}: {e}", e.problems) from e


def detect_schema(doc: dict) -> str:
    """The artifact's full schema id; :class:`PerfError` when the schema
    is unregistered or has no flatten hook (nothing numeric to ingest)."""
    try:
        schema_id = schema_id_of(doc)
    except ArtifactError as e:
        raise PerfError(str(e)) from e
    kind = registry.lookup(schema_id)
    if kind is None:
        known = ", ".join(
            k for k in registry.known_ids()
            if registry.get(k).flatten is not None
        )
        raise PerfError(
            f"unsupported artifact schema {schema_id!r} (known: {known})"
        )
    if kind.flatten is None:
        raise PerfError(
            f"artifact schema {schema_id!r} registers no flatten hook; "
            "nothing to ingest"
        )
    return schema_id


def flatten(doc: dict) -> dict:
    """``{metric name: float}`` for any registered artifact kind."""
    return registry.get(detect_schema(doc)).flatten(doc["payload"])


def record(store, doc: dict, label: str = "", source: str = "",
           git_sha: Optional[str] = None,
           created_s: Optional[float] = None) -> dict:
    """Flatten ``doc`` and publish it to ``store`` as a new run; returns
    the run's envelope.  :class:`PerfError` on an unsupported artifact,
    one that flattens to zero metrics, or a store that cannot be
    written."""
    schema = detect_schema(doc)
    metrics = flatten(doc)
    if not metrics:
        raise PerfError(f"artifact ({schema}) flattened to zero numeric metrics")
    meta = dict(label=label, source=source, artifact_schema=schema,
                artifact_digest=doc["digest"], git_sha=git_sha or "",
                created_s=time.time() if created_s is None else created_s)
    try:
        return publish(None, baseline_doc(metrics, meta), BASELINE_SCHEMA,
                       producer="repro.perf", store=store)
    except OSError as e:
        raise PerfError(f"cannot record a run in {store.root}: {e}") from e


def run_of(env: dict) -> dict:
    """The run row of a recorded envelope: its digest as ``id``, the
    ``meta`` fields, and its ``metrics``."""
    payload = env["payload"]
    meta = payload.get("meta") or {}
    row = {"id": env["digest"], **{k: meta.get(k, "") for k in _META}}
    row["git_sha"] = row["git_sha"] or None
    row["created_s"] = float(meta.get("created_s") or 0.0)
    row["metrics"] = {name: float(v) for name, v in payload["metrics"].items()}
    return row


def runs(store) -> list[dict]:
    """Every run recorded in ``store``, oldest first (``created_s``, then
    digest); entries that fail their checksum are skipped and counted in
    ``store.corrupt``."""
    found = [
        run_of(value) for _key, value in store.scan()
        if is_envelope(value) and schema_id_of(value) == BASELINE_SCHEMA
    ]
    return sorted(found, key=lambda r: (r["created_s"], r["id"]))


def select(history: list[dict], selector: str) -> dict:
    """The run ``selector`` names in ``history`` (oldest first);
    :class:`PerfError` when nothing, or more than one digest, matches."""
    if selector == "latest" or selector.startswith("latest~"):
        back = selector[len("latest~"):] or "0"
        if not back.isdigit():
            raise PerfError(f"bad selector {selector!r}")
        if int(back) < len(history):
            return history[-1 - int(back)]
    else:
        labelled = [r for r in history if r["label"] == selector]
        if labelled:
            return labelled[-1]
        prefixed = [r for r in history if r["id"].startswith(selector)]
        if len(prefixed) > 1:
            have = ", ".join(r["id"][:12] for r in prefixed)
            raise PerfError(f"run digest prefix {selector!r} is ambiguous ({have})")
        if prefixed:
            return prefixed[0]
    raise PerfError(f"no recorded run matches {selector!r}")
