"""The address-stream flavour against the callback flavour and the
interpreter, on every registered workload, point and compiler-derived."""

import numpy as np
import pytest

from repro.machine import Layout
from repro.pipeline import available_workloads, derive, get_workload
from repro.runtime.codegen import CHUNK, compile_procedure, compile_stream
from repro.runtime.interpreter import execute, make_env

WORKLOADS = [w.name for w in available_workloads()]


def inputs(proc, sizes):
    """Seeded inputs with zeros sprinkled in, so that a guard on an array
    value (the guarded matmul's ``B(K,J) .NE. 0``) goes both ways."""
    env = make_env(proc, sizes, seed=7)
    rng = np.random.default_rng(7)
    arrays = {}
    for a in proc.arrays:
        x = env[a.name]
        x[rng.random(x.shape) < 0.3] = 0
        arrays[a.name] = x
    return arrays


def variants(name):
    w = get_workload(name)
    sizes = w.sizes_for()
    for proc in (w.build(), derive(name).procedure):
        yield proc, {p: sizes[p] for p in proc.params}


@pytest.mark.parametrize("name", WORKLOADS)
def test_stream_is_the_callback_trace_through_the_layout(name, recording_tracer):
    for proc, sizes in variants(name):
        arrays = inputs(proc, sizes) if name == "matmul" else None
        layout = Layout.for_procedure(proc, sizes, line_bytes=32)
        recorder, stream = recording_tracer(), []
        by_callbacks = compile_procedure(proc, traced=True)(
            sizes, arrays=arrays, tracer=recorder, seed=7)
        by_stream = compile_stream(proc)(
            sizes, layout, lambda a, w, _: stream.extend(zip(a.tolist(), w.tolist())),
            arrays=arrays, seed=7)
        assert recorder.events, proc.name
        assert stream == [(layout.address(a, i), w) for a, i, w in recorder.events], proc.name
        by_interpreter = execute(proc, sizes, arrays=arrays, seed=7)
        for a in proc.arrays:
            assert by_stream[a.name].tobytes() == by_callbacks[a.name].tobytes(), a.name
            assert by_stream[a.name].tobytes() == by_interpreter[a.name].tobytes(), a.name


def test_chunks_are_bounded_and_in_order(recording_tracer):
    """A run long enough to flush many times: chunks overshoot ``CHUNK`` by
    at most the innermost nest's touches, and concatenate to the trace."""
    w = get_workload("lu_nopivot")
    proc, sizes = w.build(), {"N": 40}
    layout = Layout.for_procedure(proc, sizes, line_bytes=32)
    recorder, chunks = recording_tracer(), []
    compile_procedure(proc, traced=True)(sizes, tracer=recorder)
    compile_stream(proc)(sizes, layout, lambda a, w, _: chunks.append((a, w)))
    assert len(chunks) > 4
    assert max(len(a) for a, _ in chunks) <= CHUNK + 4 * sizes["N"]
    assert all(a.dtype == np.int64 and w.dtype == bool for a, w in chunks)
    assert np.concatenate([a for a, _ in chunks]).tolist() == [
        layout.address(a, i) for a, i, _ in recorder.events]
    assert np.concatenate([w for _, w in chunks]).tolist() == [w for *_, w in recorder.events]


def test_source_depends_on_the_procedure_only():
    proc = get_workload("lu_nopivot").build()
    run = compile_stream(proc)
    assert f"len(_buf) > {CHUNK}" in run.source and "_s_A_0" in run.source
    for n in (5, 9):  # one compiled kernel, two sizes and layouts
        layout = Layout.for_procedure(proc, {"N": n}, line_bytes=32)
        count = []
        run({"N": n}, layout, lambda a, w, _: count.append(len(a)))
        # per K: N-K scalings of 3 touches, (N-K)^2 updates of 4
        assert sum(count) == sum(4 * (n - k) ** 2 + 3 * (n - k) for k in range(1, n))
