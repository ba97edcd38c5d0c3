"""In-memory span recorder for the traced run.

Spans are recorded from the harness's own files, around the calls into
each layer of ``repro``; nothing inside ``src/repro`` is instrumented.
A span carries a name, the layer it is charged to, start and end on the
``perf_counter`` clock, the span that caused it, and the op it belongs to.
Everything stays in memory until :meth:`Recorder.chrome_trace` is asked
for at exit.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

#: the layer of spans that only the harness owns (root, rep, phase); their
#: self time is the part of a traced rep no layer call accounts for
HARNESS = "harness"


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: Optional[int]
    tid: int
    start: float
    end: float = 0.0
    op: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans when enabled; every method is a no-op otherwise, so
    the untraced run executes the same statements around each op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._open = threading.local()  # per-thread stack of open span ids

    def _new(self, name, layer, parent, start, end, op) -> Span:
        with self._lock:
            s = Span(len(self.spans), name, layer, parent,
                     threading.get_ident(), start, end, op)
            self.spans.append(s)
        return s

    def current(self) -> Optional[int]:
        stack = getattr(self._open, "stack", None)
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, layer: str, op: Optional[str] = None,
             parent: Optional[int] = None) -> Iterator[Optional[Span]]:
        """Time the body.  ``parent`` names the causing span when it lives
        on another thread (a client request caused by a phase)."""
        if not self.enabled:
            yield None
            return
        if parent is None:
            parent = self.current()
        s = self._new(name, layer, parent, time.perf_counter(), 0.0, op)
        stack = self._open.__dict__.setdefault("stack", [])
        stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int], op: Optional[str] = None) -> Optional[Span]:
        """Record an interval somebody else timed (a pass span reported by
        ``PipelineResult``, the worker time a daemon reply carries)."""
        if self.enabled:
            return self._new(name, layer, parent, start, end, op)
        return None

    # ---- analysis -----------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time per span, indexed by span id: the span's duration
        minus the part of its interval that its child spans cover (the
        union, so concurrent children are not subtracted twice)."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for s in self.spans:
            covered, edge = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append(s.duration - covered)
        return out

    def self_by_layer(self, root: Optional[int] = None) -> dict[str, float]:
        """Self time summed per layer, over the subtree of ``root`` (or
        every span)."""
        keep = self._subtree(root)
        totals: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            if s.id in keep:
                totals[s.layer] = totals.get(s.layer, 0.0) + t
        return totals

    def _subtree(self, root: Optional[int]) -> set[int]:
        if root is None:
            return {s.id for s in self.spans}
        keep = {root}
        for s in self.spans:  # ids are assigned in start order: parents first
            if s.parent in keep:
                keep.add(s.id)
        return keep

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (load in Perfetto / chrome://tracing)."""
        if not self.spans:
            return {"traceEvents": []}
        t0 = min(s.start for s in self.spans)
        tids = {t: i for i, t in enumerate(sorted({s.tid for s in self.spans}))}
        return {
            "traceEvents": [
                {
                    "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                    "tid": tids[s.tid],
                    "ts": round((s.start - t0) * 1e6, 3),
                    "dur": round(s.duration * 1e6, 3),
                    "args": {"id": s.id, "parent": s.parent, "op": s.op},
                }
                for s in self.spans
            ]
        }


def self_time_table(by_layer: dict[str, float]) -> str:
    """The per-layer self-time table printed by the traced run."""
    total = sum(by_layer.values()) or 1.0
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer, t in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:<12} {t:>10.4f} {t / total:>7.1%}")
    return "\n".join(lines)
