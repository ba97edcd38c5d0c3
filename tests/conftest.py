"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ir.build import assign, do, ref
from repro.ir.expr import Var
from repro.ir.stmt import ArrayDecl, Procedure
from repro.machine.cache import CacheConfig
from repro.machine.model import CostModel, MachineModel


@pytest.fixture
def tiny_machine() -> MachineModel:
    """A deliberately small cache so tiny problems overflow it."""
    return MachineModel(
        name="tiny",
        cache=CacheConfig(size_bytes=512, line_bytes=32, assoc=2),
        cost=CostModel(ref_cost=1.0, miss_penalty=18.0, writeback_cost=4.0, clock_mhz=30.0),
    )


@pytest.fixture
def vecadd_proc() -> Procedure:
    """The Sec. 2.3 running example: DO J / DO I / A(I) += B(J)."""
    return Procedure(
        "vecadd",
        ("N", "M"),
        (ArrayDecl("A", (Var("M"),)), ArrayDecl("B", (Var("N"),))),
        (
            do(
                "J",
                1,
                "N",
                do("I", 1, "M", assign(ref("A", "I"), ref("A", "I") + ref("B", "J"))),
            ),
        ),
    )


class RecordingTracer:
    """A :class:`repro.runtime.Tracer` that keeps the event sequence."""

    def __init__(self):
        self.events: list[tuple[str, tuple[int, ...], bool]] = []

    def access(self, array, index, is_write):
        self.events.append((array, tuple(index), is_write))


@pytest.fixture
def recording_tracer() -> type[RecordingTracer]:
    """The class, so that a test can record several runs."""
    return RecordingTracer


class PerArrayReference:
    """The per-access reference for the attribution's per-array view: a
    :class:`repro.runtime.Tracer` that feeds a ``CacheTracer`` one touch at
    a time and tallies, per array, the touches and the ones that missed."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.by_array: dict[str, dict[str, int]] = {}

    def access(self, array, index, is_write):
        before = self.tracer.stats.misses
        self.tracer.access(array, index, is_write)
        row = self.by_array.setdefault(array, {"accesses": 0, "misses": 0})
        row["accesses"] += 1
        row["misses"] += self.tracer.stats.misses - before


def by_array_counts(tracer) -> dict[str, dict[str, int]]:
    """``{array: {accesses, misses}}`` of an attributed ``trace_procedure`` run."""
    return {
        name: {"accesses": row["accesses"], "misses": row["misses"]}
        for name, row in tracer.attribution.by_array().items()
    }


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def assert_canonical(a) -> None:
    """An :class:`~repro.symbolic.affine.Affine` in its one stored form:
    names sorted, no zero coefficient, every number an ``int`` or a proper
    ``Fraction`` — never ``Fraction(n, 1)``, never a float."""
    from fractions import Fraction

    names = [n for n, _ in a.coeffs]
    assert names == sorted(set(names))
    for c in [c for _, c in a.coeffs] + [a.const]:
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert all(c != 0 for _, c in a.coeffs)


def lookup_across_hash_seeds(build: str) -> list:
    """Where objects hashed and pickled under one hash seed land in a dict
    built under another.

    ``build`` is Python source binding ``OBJS``, a list of hashable
    objects.  One process (``PYTHONHASHSEED=1``) builds them, hashes each
    (so anything that remembers a hash has one), and pickles the list; a
    second (``PYTHONHASHSEED=2``) unpickles it and looks each object up in
    a dict keyed by equal objects it built itself.  Returns the dict
    values found, ``None`` for a miss: ``list(range(len(OBJS)))`` when no
    stale hash crossed."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {"PYTHONPATH": str(Path(repro.__file__).parent.parent), "PATH": os.environ.get("PATH", "")}
    produce = build + "\nimport pickle, sys\nfor o in OBJS: hash(o)\nsys.stdout.buffer.write(pickle.dumps(OBJS))\n"
    consume = build + (
        "\nimport json, pickle, sys\nloaded = pickle.loads(sys.stdin.buffer.read())\n"
        "table = {o: k for k, o in enumerate(OBJS)}\nprint(json.dumps([table.get(o) for o in loaded]))\n"
    )
    blob = subprocess.run([sys.executable, "-c", produce], env={**env, "PYTHONHASHSEED": "1"},
                          capture_output=True, check=True, timeout=60).stdout
    out = subprocess.run([sys.executable, "-c", consume], env={**env, "PYTHONHASHSEED": "2"},
                         input=blob, capture_output=True, check=True, timeout=60).stdout
    return json.loads(out)


class CountingName(str):
    """A name whose every ``hash`` is counted in ``CountingName.hashes``:
    it shows how often a value built on it recomputes its own hash."""

    hashes = 0

    def __hash__(self) -> int:
        CountingName.hashes += 1
        return str.__hash__(self)
