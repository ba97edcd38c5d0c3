"""Shared exception hierarchy for the repro compiler.

Every subsystem raises a subclass of :class:`ReproError` so callers can
distinguish "the compiler declined to transform" (expected, part of the
blockability study) from genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ReproError):
    """The Fortran-subset front end rejected the input text."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"{message}{where}")


class AnalysisError(ReproError):
    """An analysis (dependence, sections, shape) could not produce a result."""


class ArtifactError(ReproError):
    """An artifact document failed the shared envelope/registry layer
    (:mod:`repro.artifacts`): malformed envelope, unknown or stale schema,
    digest mismatch, or a payload that fails its registered shape or invariants.

    ``problems`` holds the structured
    :class:`~repro.artifacts.validate.Problem` list (possibly empty when
    raised for I/O-level failures)."""

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


class TransformError(ReproError):
    """A transformation's safety preconditions do not hold.

    This is the signal the blockability driver converts into a verdict:
    a :class:`TransformError` means "a dependence-respecting compiler must
    refuse here", which is data, not failure.
    """


class SemanticsError(ReproError):
    """The IR interpreter hit an ill-formed program (unbound name, rank
    mismatch, out-of-bounds subscript)."""


class MachineError(ReproError):
    """Invalid machine/cache configuration."""


class DaemonError(ReproError):
    """The persistent compile service (:mod:`repro.daemon`) could not
    honor a request: the daemon is not running, the state file is stale,
    a start/stop handshake timed out, or a client call failed."""


class LoadError(ReproError):
    """The open-loop load generator (:mod:`repro.load`) was given a
    malformed grid, or the target daemon could not be reached."""


class MatrixError(ReproError):
    """An experiment grid (:mod:`repro.matrix`) is malformed: unknown
    factor, empty or duplicate levels, a bad results database, or a
    report request naming an absent factor."""


class PerfError(ReproError):
    """The run-history database (:mod:`repro.perf`) was asked something
    it cannot answer: an unknown artifact schema, a selector matching no
    recorded run, a malformed baseline file, or a bad database.

    ``problems`` carries the structured rows when the cause was an
    artifact file failing validation (see :class:`ArtifactError`)."""

    def __init__(self, message: str, problems=()):
        super().__init__(message)
        self.problems = list(problems)


class PipelineError(ReproError):
    """A pass pipeline could not be assembled or run (unknown pass or
    algorithm, bad option, infeasible pass under ``on_infeasible="raise"``)."""


class VerificationError(ReproError):
    """Differential verification caught a semantics change.

    Raised by :mod:`repro.pipeline.verify` with the name of the first pass
    whose output disagrees with the reference execution."""


class CheckError(ReproError):
    """The static checker (:mod:`repro.check`) found an error-severity
    diagnostic: malformed IR or an illegal transformation.

    ``diagnostics`` holds the offending
    :class:`~repro.check.diagnostics.Diagnostic` list; when raised from a
    ``--check`` pipeline run, ``result`` carries the partial
    :class:`~repro.pipeline.manager.PipelineResult` up to the failure."""

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)
        self.result = None
