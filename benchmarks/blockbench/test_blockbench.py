"""The harness's own checks; run as ``pytest benchmarks/blockbench``
(tier-1 collects ``tests/`` only).  Everything runs ``--quick``."""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from spans import HARNESS, Recorder  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@pytest.fixture
def scratch():
    """A directory inside the checkout, like everything the harness writes."""
    (ROOT / ".blockbench").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=ROOT / ".blockbench"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run(*argv, check=True):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr[-2000:]
    proc.result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
    return proc


def test_contract_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [x["name"] for k in ("workloads", "end_to_end", "per_layer") for x in CONTRACT[k]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    got = run("--workload", workload, "--quick", "--trace", "0").result
    assert got["correct"] and got["failed"] == 0 and got["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in got["metrics"].items()} == want
    assert all(v["value"] > 0 for v in got["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    got = run("--workload", "simulate", "--quick", "--trace", "1").result
    assert got["correct"]
    want = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    have = {k: v["unit"] for k, v in got["metrics"].items()}
    assert set(have) <= set(want)
    # --quick skips lu_pivot's derivation and the numbers that hang on it
    assert {n for n in set(want) - set(have) if "lu_pivot" not in n} == set()
    assert all(have[n] == want[n] for n in have)
    m = {k: v["value"] for k, v in got["metrics"].items()}
    assert sum(v for k, v in m.items() if k.startswith("share.")) == pytest.approx(1.0)
    assert m["share.machine"] >= 0.95


def test_seed_is_honoured(scratch):
    from workloads import WORKLOADS as W

    def sparse_b(seed):
        traces = W["simulate"].setup(seed, True, scratch)["traces"]
        return next(t for t in traces if t.label == "matmul.point").arrays["B"]

    assert (sparse_b(3) == sparse_b(3)).all()
    assert not (sparse_b(3) == sparse_b(4)).all()
    orders = {tuple(W["derive_kernels"].setup(s, True, scratch)["kernels"])
              for s in range(8)}
    assert len(orders) > 1
    # another seed gives the guarded matmul another B: its CacheStats are
    # no longer the pinned ones, and the run must still check out
    assert run("--workload", "simulate", "--quick", "--seed", "5").result["correct"]


def test_wrong_expected_entry_fails():
    path = HERE / "expected.json"
    good = path.read_text(encoding="utf-8")
    bad = json.loads(good)
    bad["fingerprints"]["matmul"] = "0" * 64
    try:
        path.write_text(json.dumps(bad), encoding="utf-8")
        proc = run("--workload", "derive_kernels", "--quick", check=False)
    finally:
        path.write_text(good, encoding="utf-8")
    assert proc.returncode != 0
    assert not proc.result["correct"] and proc.result["failed"] >= 1


def test_self_times_sum_to_the_traced_wall():
    import time

    rec = Recorder(enabled=True)
    with rec.span("root", HARNESS) as root:
        for _ in range(3):
            with rec.span("a", "x") as a:
                time.sleep(0.002)
                rec.add("given", "y", a.start, a.start + 0.001, a.id)
                with rec.span("b", "y"):
                    time.sleep(0.001)
    assert sum(rec.self_times()) == pytest.approx(root.duration, rel=1e-9)
    by_layer = rec.self_by_layer(root.id)
    assert sum(by_layer.values()) == pytest.approx(root.duration, rel=1e-9)
    # concurrent children are covered once, not subtracted twice
    rec = Recorder(enabled=True)
    with rec.span("phase", HARNESS) as phase:
        time.sleep(0.003)
    rec.add("r1", "d", phase.start, phase.start + 0.002, phase.id)
    rec.add("r2", "d", phase.start + 0.001, phase.start + 0.003, phase.id)
    self_times = rec.self_times()
    assert self_times[phase.id] == pytest.approx(phase.duration - 0.003)
    assert not Recorder(enabled=False).spans


def test_compare_reads_its_own_output(scratch):
    a, b = scratch / "a.json", scratch / "b.json"
    run("--workload", "derive_kernels", "--quick", "--out", str(a))
    run("--workload", "derive_kernels", "--quick", "--out", str(b))
    doc = json.loads(a.read_text())
    assert {"nproc", "python", "git_sha", "seed", "loadavg_1m"} <= set(doc["environment"])
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--compare", str(a), str(b)],
                          capture_output=True, text=True, cwd=ROOT)
    assert "wall_s" in proc.stdout and proc.returncode in (0, 1)


def test_run_leaves_no_store_behind():
    run("--workload", "serve_mix", "--quick")
    scratch = ROOT / ".blockbench"
    assert not [p for p in scratch.iterdir() if p.is_dir()]
    assert not (ROOT / ".repro-cache").exists() or not any(
        (ROOT / ".repro-cache").glob("daemon.json"))
