"""Diagnostic model and rule catalogue for :mod:`repro.check`.

Every finding the checker produces is a :class:`Diagnostic`: a rule id
from the catalogue below, a severity, an IR path locating the construct,
a human-readable message and, when it blames an edge or a statement,
that witness record.  Rule ids are stable strings of the form
``<layer>/<slug>`` where the layer names the subsystem that owns the
invariant:

- ``ir/*``     — structural IR invariants (:mod:`repro.check.verifier`);
- ``legal/*``  — transformation-legality predicates
  (:mod:`repro.check.legality`);
- ``lint/*``   — blockability classifications (:mod:`repro.check.linter`).

The catalogue is data, not code: ``python -m repro check --rules`` prints
it, the report schema embeds it, and tests assert mutations map to the
documented rule id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.analysis.dependence import render_witness
from repro.obs import core as _obs


class Severity(str, Enum):
    """How bad a finding is.

    ``ERROR`` findings make ``--check`` pipeline runs fail fast and turn
    the CLI exit status nonzero; ``WARNING`` and ``INFO`` are advisory
    (the linter's "not blockable" is a fact about the algorithm, not a
    defect in the IR).
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding; ``witness`` is the record of what the finding
    blames (:data:`repro.analysis.dependence.WITNESS`), when it names one."""

    rule: str
    severity: Severity
    path: str
    message: str
    witness: Optional[dict] = field(default=None, hash=False)

    def to_dict(self) -> dict:
        doc = {"rule": self.rule, "severity": self.severity.value,
               "path": self.path, "message": self.message}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc

    def pretty(self) -> str:
        text = f"{self.severity.value}[{self.rule}] {self.path}: {self.message}"
        if self.witness is not None:
            text += f"; witness: {render_witness(self.witness)}"
        return text


@dataclass(frozen=True)
class Rule:
    """Catalogue entry: what a rule id means and how severe a hit is."""

    id: str
    severity: Severity
    summary: str


def _catalogue(*rules: Rule) -> dict[str, Rule]:
    return {r.id: r for r in rules}


#: The full rule catalogue, keyed by rule id.
RULES: dict[str, Rule] = _catalogue(
    # ---- ir/* : structural invariants over repro.ir ----------------------
    Rule("ir/shadowed-induction", Severity.ERROR,
         "a loop redefines an induction variable already bound by an "
         "enclosing DO / BLOCK DO / IN DO"),
    Rule("ir/undeclared-array", Severity.ERROR,
         "an ArrayRef names an array with no ArrayDecl in the procedure"),
    Rule("ir/rank-mismatch", Severity.ERROR,
         "an ArrayRef's subscript count differs from the declared rank"),
    Rule("ir/zero-step", Severity.ERROR,
         "a DO step is (provably) zero — the loop cannot advance"),
    Rule("ir/self-referential-bound", Severity.ERROR,
         "a DO bound or step mentions the loop's own induction variable"),
    Rule("ir/undefined-var", Severity.ERROR,
         "a scalar Var resolves to no parameter, enclosing loop binder, "
         "or scalar assigned in the procedure"),
    Rule("ir/array-used-as-scalar", Severity.ERROR,
         "a declared array name appears as a scalar Var"),
    Rule("ir/assign-to-induction", Severity.ERROR,
         "an assignment writes an active induction variable inside its loop"),
    Rule("ir/in-do-without-block", Severity.ERROR,
         "IN v DO with no enclosing BLOCK DO over v (Sec. 6)"),
    Rule("ir/last-outside-block", Severity.ERROR,
         "LAST(v) outside any enclosing BLOCK DO over v (Sec. 6)"),
    Rule("ir/last-arity", Severity.ERROR,
         "LAST() takes exactly one argument, a block variable"),
    # ---- legal/* : per-pass transformation legality ----------------------
    Rule("legal/interchange-direction", Severity.ERROR,
         "interchange across a dependence realizable with direction "
         "(=,...,=,<,>) on the swapped pair"),
    Rule("legal/interchange-bounds", Severity.ERROR,
         "interchange where a loop bound uses scalars written in the nest"),
    Rule("legal/stripmine-step", Severity.ERROR,
         "strip-mining a loop whose step is not 1"),
    Rule("legal/stripmine-factor", Severity.ERROR,
         "strip-mining by a constant factor < 1"),
    Rule("legal/distribution-cycle", Severity.ERROR,
         "distribution separated statements of one dependence cycle "
         "(recurrence) into different loops"),
    Rule("legal/split-partition", Severity.ERROR,
         "index-set split pieces do not exactly partition the original "
         "iteration range"),
    Rule("legal/jam-carried-race", Severity.ERROR,
         "unroll-and-jam across an outer-carried dependence that the "
         "fused copies would reverse"),
    Rule("legal/block-carried-recurrence", Severity.ERROR,
         "a block whose result, read back, has no strip loop innermost "
         "under a target with inner loops"),
    Rule("legal/if-inspection-shape", Severity.ERROR,
         "IF-inspection of a loop whose body is not a single IF-THEN"),
    Rule("legal/par-carried-dep", Severity.ERROR,
         "a PARALLEL DO marker on a loop the detector does not classify "
         "PARALLEL (a loop-carried dependence or cross-iteration scalar)"),
    Rule("legal/par-reduction-shape", Severity.ERROR,
         "a PARALLEL REDUCTION DO marker whose carried dependences are not "
         "all commutative accumulations acc = acc op term"),
    # ---- lint/* : blockability classifications ---------------------------
    Rule("lint/blockable", Severity.INFO,
         "the loop nest is blockable by pure dependence reasoning"),
    Rule("lint/blockable-with-commutativity", Severity.INFO,
         "the loop nest is blockable only with Sec. 5.2 commutativity "
         "knowledge"),
    Rule("lint/not-blockable", Severity.WARNING,
         "no inner loop both escapes the dependence cycle and admits the "
         "strip innermost: the nest is not blockable, the witness names "
         "the preventing dependence or the obstructing statement"),
    # ---- lint/par-* : loop-parallelism classifications (repro.par) -------
    Rule("lint/par-parallel", Severity.INFO,
         "the loop carries no dependence: iterations may run concurrently "
         "(PARALLEL DO candidate)"),
    Rule("lint/par-reduction", Severity.INFO,
         "the loop carries only commutative accumulation: iterations "
         "commute up to FP reassociation (PARALLEL REDUCTION DO candidate)"),
    Rule("lint/par-serial", Severity.INFO,
         "the loop must run serially; the blocking dependence edge and its "
         "direction vector are named as the witness"),
)


def diag(rule_id: str, path: str, message: str,
         witness: Optional[dict] = None) -> Diagnostic:
    """Build a diagnostic for a catalogued rule, at the catalogue's
    severity."""
    return Diagnostic(rule_id, RULES[rule_id].severity, path, message, witness)


def errors_in(diagnostics) -> list[Diagnostic]:
    return [d for d in diagnostics if d.severity == Severity.ERROR]


def counted(diagnostics: list) -> list:
    """Add ``diagnostics`` to the active observer's ``check.diagnostics``
    and ``check.rule.*`` counters (the one place they are counted, for
    fresh and replayed findings alike); returns them."""
    _obs.count("check.diagnostics", len(diagnostics))
    for d in diagnostics:
        _obs.count(f"check.rule.{d.rule}")
    return diagnostics
