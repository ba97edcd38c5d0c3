"""The open-loop load generator: ramped arrivals against a live daemon.

**Open-loop** is the property that makes the saturation knee honest:
arrival ``k`` of a step fires at ``t0 + k / rate`` whether or not
earlier requests have come back.  A closed-loop client (wait for the
reply, then send the next) self-throttles exactly when the server
slows down, hiding the knee; an open-loop one keeps offering load, so
a saturated daemon is *forced* to choose — queue (latency grows) or
shed (429) — and the report records which.

The job mix is deterministic, not sampled: each mix entry's ``weight``
expands into a repeating schedule, so the same grid offers the same
request sequence every run.  An entry marked ``"unique": true`` gets a
fresh ``nonce`` in its options per arrival — a guaranteed store miss,
the cold-compute side of the warm/cold comparison (the daemon's store
digest covers probe options, so distinct nonces never coalesce).

Client-side latency is measured around the whole HTTP round trip and
P²-streamed per step (overall / hit / computed); the merged hit and
computed streams across all steps feed the warm-vs-cold analysis in
:mod:`repro.load.report`.
"""

from __future__ import annotations

import copy
import threading
import time
from typing import Optional

from repro.errors import LoadError
from repro.obs.core import Histogram
from repro.serve.pool import OK_STATUSES, STATUSES

from repro.daemon import state as _state
from repro.load import report as _report

#: senders still in flight when a step's offer window closes are joined
#: for at most this long before the run gives up on them
_DRAIN_GRACE_S = 30.0


def check_grid(grid: dict) -> dict:
    """Normalize and sanity-check a grid; :class:`LoadError` on nonsense."""
    if not isinstance(grid, dict):
        raise LoadError("grid must be a JSON object")
    steps = grid.get("steps")
    if not isinstance(steps, list) or not steps:
        raise LoadError("grid needs a non-empty 'steps' list")
    for i, step in enumerate(steps):
        if not isinstance(step, dict):
            raise LoadError(f"grid steps[{i}] is not an object")
        rate = step.get("rate")
        if not isinstance(rate, (int, float)) or rate <= 0:
            raise LoadError(f"grid steps[{i}].rate must be > 0")
        dur = step.get("duration_s", 2.0)
        if not isinstance(dur, (int, float)) or dur <= 0:
            raise LoadError(f"grid steps[{i}].duration_s must be > 0")
        step["duration_s"] = float(dur)
    mix = grid.get("mix")
    if not isinstance(mix, list) or not mix:
        raise LoadError("grid needs a non-empty 'mix' list")
    for i, entry in enumerate(mix):
        if not isinstance(entry, dict) or not isinstance(
            entry.get("job"), dict
        ):
            raise LoadError(f"grid mix[{i}] needs a 'job' object")
        weight = entry.get("weight", 1)
        if not isinstance(weight, int) or weight < 1:
            raise LoadError(f"grid mix[{i}].weight must be an integer >= 1")
        entry["weight"] = weight
    return grid


def _schedule(mix: list[dict]) -> list[dict]:
    """The weighted round-robin expansion the arrival index cycles over."""
    out: list[dict] = []
    for entry in mix:
        out.extend([entry] * entry["weight"])
    return out


class _StepStats:
    """One step's aggregation, mutated by sender threads under a lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.outcomes: dict[str, int] = {}
        self.latency = {key: Histogram() for key in _report.LATENCY_KEYS}

    def record(self, outcome: str, elapsed_s: float,
               warm: Histogram, cold: Histogram) -> None:
        with self.lock:
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            self.latency["request_s"].observe(elapsed_s)
            if outcome == "hit":
                self.latency["hit_s"].observe(elapsed_s)
                warm.observe(elapsed_s)
            elif outcome in OK_STATUSES:
                self.latency["computed_s"].observe(elapsed_s)
                cold.observe(elapsed_s)


def _classify(reply: _state.DaemonReply) -> str:
    if reply.ok:
        status = reply.body.get("status")
        return status if status in STATUSES else "error"
    if reply.status == 429:
        return "shed"
    if reply.status == 504:
        return "deadline"
    if reply.status == 503:
        return "draining"
    return "error"


def run_grid(
    grid: dict,
    host: str,
    port: int,
    deadline_s: Optional[float] = None,
    progress=None,
) -> dict:
    """Run every step of ``grid`` against the daemon at ``host:port`` and
    return the ``repro.serve.load/1`` payload.  ``progress`` (optional)
    is called with one line of text after each step."""
    grid = check_grid(grid)
    schedule = _schedule(grid["mix"])
    deadline_s = deadline_s or grid.get("deadline_s")
    warm, cold = Histogram(), Histogram()
    steps_out: list[dict] = []
    nonce = [0]
    t_run = time.perf_counter()

    def fire(job: dict, stats: _StepStats) -> None:
        body: dict = {"job": job}
        if deadline_s is not None:
            body["deadline_s"] = deadline_s
        t0 = time.perf_counter()
        try:
            reply = _state.request(
                host, port, "POST", "/v1/jobs", body,
                timeout_s=(deadline_s or 60.0) + 10.0,
            )
            outcome = _classify(reply)
        except Exception:
            outcome = "error"
        stats.record(outcome, time.perf_counter() - t0, warm, cold)

    for step in grid["steps"]:
        rate = float(step["rate"])
        duration_s = step["duration_s"]
        offered = max(1, int(rate * duration_s))
        stats = _StepStats()
        threads: list[threading.Thread] = []
        t0 = time.perf_counter()
        for k in range(offered):
            # open loop: arrival k fires at t0 + k/rate, completions be damned
            wait = t0 + k / rate - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            entry = schedule[k % len(schedule)]
            job = copy.deepcopy(entry["job"])
            if entry.get("unique"):
                nonce[0] += 1
                job.setdefault("options", {})["nonce"] = nonce[0]
            t = threading.Thread(target=fire, args=(job, stats), daemon=True)
            t.start()
            threads.append(t)
        join_by = time.perf_counter() + _DRAIN_GRACE_S
        for t in threads:
            t.join(max(0.0, join_by - time.perf_counter()))
        elapsed = time.perf_counter() - t0
        resolved = sum(stats.outcomes.get(s, 0) for s in OK_STATUSES)
        row = {
            "rate": rate,
            "duration_s": duration_s,
            "offered": offered,
            "sent": len(threads),
            "outcomes": dict(sorted(stats.outcomes.items())),
            "latency": {k: h.summary() for k, h in stats.latency.items()},
            "throughput": round(resolved / elapsed, 2) if elapsed else 0.0,
        }
        steps_out.append(row)
        if progress is not None:
            shed = stats.outcomes.get("shed", 0)
            p50 = row["latency"]["request_s"]["p50"]
            progress(
                f"  rate {rate:g}/s x {duration_s:g}s: {offered} offered, "
                f"{resolved} resolved, {shed} shed, "
                f"p50 {p50 * 1000:.1f} ms"
            )

    analysis = _report.analyze(steps_out, warm, cold)
    return _report.build_report(
        endpoint={"host": host, "port": port},
        grid=grid,
        steps=steps_out,
        analysis=analysis,
        elapsed_s=time.perf_counter() - t_run,
    )


#: named grids usable anywhere a grid file is accepted.  ``quick`` is
#: the CI smoke ramp; ``bench`` produced the committed BENCH_serve.json.
BUILTIN_GRIDS: dict[str, dict] = {
    "quick": {
        "steps": [
            {"rate": 2, "duration_s": 1.5},
            {"rate": 6, "duration_s": 1.5},
            {"rate": 16, "duration_s": 1.5},
            {"rate": 32, "duration_s": 1.5},
        ],
        "mix": [
            {"weight": 3,
             "job": {"kind": "derive", "workload": "lu_nopivot"}},
            {"weight": 1, "unique": True,
             "job": {"kind": "probe", "workload": "load",
                     "options": {"action": "ok", "seconds": 0.2},
                     "max_retries": 0}},
        ],
        "deadline_s": 10.0,
    },
    "bench": {
        "steps": [
            {"rate": 2, "duration_s": 3},
            {"rate": 4, "duration_s": 3},
            {"rate": 8, "duration_s": 3},
            {"rate": 16, "duration_s": 3},
            {"rate": 32, "duration_s": 3},
        ],
        "mix": [
            {"weight": 3,
             "job": {"kind": "derive", "workload": "lu_nopivot"}},
            {"weight": 2,
             "job": {"kind": "derive", "workload": "conv"}},
            {"weight": 1, "unique": True,
             "job": {"kind": "probe", "workload": "load",
                     "options": {"action": "ok", "seconds": 0.25},
                     "max_retries": 0}},
        ],
        "deadline_s": 15.0,
    },
}
