"""Machine substrate: cache simulation and the memory cost model.

The paper's experiments ran on an IBM RS/6000 model 540 and report
wall-clock seconds; the speedups come from memory-hierarchy behaviour.
CPython mutes real cache effects (interpreter overhead dominates every
load), so this package reproduces the *mechanism* instead: the runtime
feeds every array-element access (as a stream of byte addresses consumed
in chunks, or one trace-hook call at a time) through a set-associative LRU
cache simulator with Fortran column-major addressing, and a simple cycle
model (``cycles = refs*ref_cost + misses*miss_penalty + flops*flop_cost``)
turns miss counts into modeled times.  Who wins and by what factor is then
a property of the trace, which we reproduce exactly.

- :mod:`repro.machine.cache` — the simulator,
- :mod:`repro.machine.layout` — array base addresses and column-major
  element addressing,
- :mod:`repro.machine.model` — machine descriptions (RS/6000-540-like
  default plus scaled variants for affordable simulation sizes) and the
  cost model,
- :mod:`repro.machine.tracer` — glue: a :class:`repro.runtime.Tracer` that
  maps (array, index) accesses to addresses and drives the cache, and the
  chunk consumer for the address stream.
"""

from repro.machine.cache import Cache, CacheConfig, CacheStats
from repro.machine.layout import Layout
from repro.machine.model import CostModel, MachineModel, RS6000_540, scaled_machine
from repro.machine.tracer import CacheTracer, trace_procedure

__all__ = [
    "Cache",
    "CacheConfig",
    "CacheStats",
    "CacheTracer",
    "CostModel",
    "Layout",
    "MachineModel",
    "RS6000_540",
    "scaled_machine",
    "trace_procedure",
]
