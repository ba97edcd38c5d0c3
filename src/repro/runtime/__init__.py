"""Execution substrate for the loop IR.

One engine and its oracle, with identical semantics:

- :mod:`repro.runtime.codegen` — compiles a :class:`repro.ir.Procedure` to a
  Python function, and is what produces every result: plain, traced through
  ``_ld``/``_st`` callbacks, or emitting the address stream (with the static
  site of every touch) that the cache simulator consumes in chunks;
- :mod:`repro.runtime.interpreter` — a tree-walking reference interpreter
  (slow, simple, obviously correct, ~20x slower) with a per-access trace
  hook: what the differential verifier and the tests check compiled code
  against, and the base of the race sanitizer.

Both use Fortran semantics: 1-based subscripts, column-major layout
(numpy ``order='F'``), DO-loop trip counts computed once at loop entry.

:mod:`repro.runtime.validate` runs original and transformed procedures on
the same random inputs and asserts (near-)equality — the property every
transformation in this package must preserve.
"""

from repro.runtime.codegen import compile_procedure, compile_stream, generate_source
from repro.runtime.interpreter import Interpreter, execute, make_env
from repro.runtime.validate import assert_equivalent, run_on_random

__all__ = [
    "Interpreter",
    "assert_equivalent",
    "compile_procedure",
    "compile_stream",
    "execute",
    "generate_source",
    "make_env",
    "run_on_random",
]
