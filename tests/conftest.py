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
