"""``python -m repro <command>``: the one front door.

Three things no per-command test module can pin: the *boundary* (one
parser, one spelling per shared flag, lazy dispatch), the *exit-code
contract* as one table over every command, and the *routes* (the two
ways to launch the daemon reach one handler; the old per-package
spellings are gone).
"""

from __future__ import annotations

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import cli
from repro.artifacts import (
    envelope, payload_digest, publish, registry, validate_document, write_file,
)
from repro.artifacts.registry import PERF_BASELINE, PIPELINE_TRACE
from repro.check.diagnostics import diag
from repro.ir.build import assign, ref
from repro.ir.expr import Const, Var
from repro.ir.stmt import ArrayDecl, ParallelLoop, Procedure
from repro.pipeline import passes
from repro.pipeline.passes import PassInfo, PassOutcome

SRC = Path(repro.__file__).parent
ENV = {"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"}

#: flags the core declares once for everybody (repro.cli's flag groups)
SHARED_FLAGS = (
    "--store-dir", "--store", "--no-store",
    "--workers",
    "--obs", "--chrome-trace",
    "--out", "--json",
    "--passes", "--sizes",
)


# ---- (a) the boundary ------------------------------------------------------


def _modules_containing(text: str) -> list[str]:
    return sorted(
        str(p.relative_to(SRC)) for p in SRC.rglob("*.py")
        if text in p.read_text(encoding="utf-8")
    )


class TestBoundary:
    def test_two_mains_one_parser(self):
        mains = sorted(str(p.relative_to(SRC)) for p in SRC.rglob("__main__.py"))
        assert mains == ["__main__.py", "daemon/__main__.py"]
        assert _modules_containing("ArgumentParser(") == ["cli.py"]

    @pytest.mark.parametrize("flag", SHARED_FLAGS)
    def test_each_shared_flag_is_declared_in_the_core_only(self, flag):
        assert _modules_containing(f'"{flag}"') == ["cli.py"]

    def test_no_per_package_spelling_survives(self):
        for path in SRC.rglob("*.py"):
            for line in path.read_text(encoding="utf-8").splitlines():
                if "python -m repro." in line:
                    # the one forward blockbench launches the daemon through
                    assert "python -m repro.daemon" in line, (path, line)

    def test_source_lines_only_go_down(self):
        """ROADMAP aim 2 as a ratchet: ``find src -name '*.py' | xargs wc
        -l``, the count every CHANGES entry quotes.  A simplicity PR lowers
        the ceiling to its result; a PR that has to grow the source says so
        by raising this one constant."""
        ceiling = 23_115
        lines = sum(
            p.read_bytes().count(b"\n") for p in SRC.parent.rglob("*.py")
        )
        assert lines <= ceiling, f"src/ grew to {lines} lines (ceiling {ceiling})"

    def test_one_builder_per_rewrite(self):
        """Sec. 3.2's trapezoid split and Sec. 5.2's rank-1 matcher are
        written once for both of their cases, and one builder makes the
        Sec. 4 inspector's range arrays for ``if_inspect`` and Fig. 10's
        fused distribution alike."""
        for gone in ("def split_trapezoid_min", "def split_trapezoid_max",
                     "def _is_rank1_update_one_level"):
            assert _modules_containing(gone) == [], gone
        builds = 'fresh_var(f"{k}LB"'
        assert [(m, (SRC / m).read_text(encoding="utf-8").count(builds))
                for m in _modules_containing(builds)] == [
            ("transform/if_inspection.py", 1)]

    def test_one_builder_per_listing_family(self):
        """The hand-written programs live in ``repro.algorithms``, each
        family built from shared steps: the bench package constructs no
        ``Procedure``, and ``algorithms/lu.py`` constructs one for the two
        point LUs and one for the three block LUs."""
        assert [m for m in _modules_containing("Procedure(") if m.startswith("bench/")] == []
        lu = (SRC / "algorithms" / "lu.py").read_text(encoding="utf-8")
        builds = {d.split("(", 1)[0]: d.count("Procedure(") for d in lu.split("\ndef ")[1:]}
        assert {f: n for f, n in builds.items() if n} == {"_point_lu": 1, "_block_lu": 1}

    def test_a_run_is_recorded_once(self):
        """One job row, one store key space, one commutativity oracle, one
        form of an observation: the second renderings, the request-pointer
        copies, the batch report kind and the JSON observer snapshot stay
        deleted."""
        ids = registry.known_ids()
        assert len(ids) == 10 and "repro.serve/1" not in ids
        assert "repro.obs.snapshot/1" not in ids
        assert not (SRC / "obs" / "snapshot.py").exists()
        for gone in ("artifact-request", "get_for_request", "def resumed",
                     '"--fresh"'):
            assert _modules_containing(gone) == [], gone
        assert _modules_containing('k != "ir"') == ["serve/pool.py"]
        assert _modules_containing("def _match_group") == [
            "analysis/commutativity.py"]
        assert not (SRC / "check" / "oracle.py").exists()
        assert [m for m in _modules_containing("Histogram(")
                if m.startswith("serve/")] == []

    def test_one_database_three_cache_tiers(self):
        """The one database left, ``perf.db``, is gone too: a sweep's
        memory and the run history both live in the artifact store."""
        assert _modules_containing("sqlite3") == []
        assert not (SRC / "perf" / "db.py").exists()
        assert not (SRC / "matrix" / "db.py").exists()
        assert not (SRC / "artifacts" / "sqlitedb.py").exists()

    def test_one_judge_per_question(self):
        """``lint_loop`` gives the verdict and ``derive`` the program: the
        second verdict producer stays deleted.  Equivalence is equal bytes:
        no tolerance survives in the source."""
        assert list((SRC / "blockability").glob("*.py")) == []
        for gone in ("rtol", "atol", "allclose"):
            assert _modules_containing(gone) == [], gone

    def test_no_second_budget_tool(self):
        """Blockbench is the one cold/warm measurement of the derive path:
        the ``bench`` command, its artifact kind and its committed file
        stay deleted, and a document of that kind is any unknown schema."""
        assert "bench" not in cli.COMMANDS and cli.main(["bench"]) == 2
        ids = registry.known_ids()
        assert len(ids) == 10 and "repro.pipeline.bench/1" not in ids
        assert not (SRC.parent.parent / "BENCH_pipeline.json").exists()
        doc = envelope({"workloads": {}}, "repro.pipeline.bench/1")
        assert [p.rule for p in validate_document(doc)] == [
            "artifact/unknown-schema"]

    def test_one_spelling_of_the_ok_statuses(self):
        assert _modules_containing('"hit", "computed", "retried"') == [
            "serve/pool.py"]

    def test_importing_the_core_imports_no_command(self):
        lazy = ["repro.matrix", "repro.perf", "repro.par", "repro.load",
                "repro.check", "repro.bench"]
        code = ("import sys, repro.cli; "
                f"print([m for m in {lazy!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_networkx_is_a_test_oracle_only(self):
        """The statement graph is in-house: with networkx unimportable
        every registry workload derives and audits, and a plain ``import
        repro`` loads no ``networkx*`` module."""
        code = ("import sys; sys.modules['networkx'] = None\n"
                "from repro.check import audit_workload\n"
                "from repro.pipeline import derive\n"
                "from repro.pipeline.workloads import available_workloads\n"
                "for w in available_workloads():\n"
                "    derive(w.name)\n"
                "    audit_workload(w.name)\n"
                "print(len(available_workloads()))")
        proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) >= 6
        code = ("import sys, repro; "
                "print([m for m in sys.modules if m.startswith('networkx')])")
        proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_every_command_builds_its_parser(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        assert f"python -m repro {command}" in capsys.readouterr().out


# ---- (b) the exit-code contract --------------------------------------------


@pytest.fixture
def world(tmp_path, monkeypatch):
    """Files and planted faults the table's command lines refer to."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def trace(block_size: int) -> dict:
        return {
            "algorithm": "x", "procedure": "x",
            "verify_enabled": False, "elapsed_s": 0.1,
            "cache": {},
            "spans": [{"index": 0, "pass": "block", "status": "applied",
                       "wall_s": 0.1, "cached": False, "ir_size_before": 50,
                       "ir_size_after": block_size}],
        }

    publish(str(tmp_path / "good.json"), trace(154), PIPELINE_TRACE)
    publish(str(tmp_path / "grown.json"), trace(164), PIPELINE_TRACE)
    write_file(str(tmp_path / "bare.json"), trace(154))
    # well-formed envelope, right digest, shape-broken payload: before the
    # declared shapes this one was a traceback from ``artifacts validate``
    # and a silent exit 0 from ``perf record``
    broken = json.loads((SRC.parent.parent / "BENCH_matrix.json").read_text())
    broken["payload"]["rows"][0] = None
    broken["digest"] = payload_digest(broken["payload"])
    write_file(str(tmp_path / "broken.json"), broken)
    publish(
        str(tmp_path / "base.json"),
        {"meta": {}, "metrics": {"pass:block.ir_size_after": 154.0}},
        PERF_BASELINE,
    )
    (tmp_path / "doomed.json").write_text(json.dumps([
        {"kind": "probe", "options": {"action": "raise"}, "label": "doomed"},
    ]))

    # a miscompiling pass: silently drops the whole computation
    def shrink(proc, ctx, options):
        return PassOutcome(
            Procedure(proc.name, proc.params, proc.arrays, ()), True)

    passes.register(PassInfo("shrink", "test-only miscompile"),
                    lambda p, c, o: None, shrink)

    # an error-severity diagnostic out of the check stack
    import repro.check

    monkeypatch.setattr(
        repro.check, "lint_parallelism",
        lambda proc, ctx: [diag("ir/zero-step", "p/DO I", "planted")])

    # a stale PARALLEL marker: every iteration writes A(1)
    from repro.par import cli as par_cli

    racy = Procedure(
        "racy", ("N",), (ArrayDecl("A", (Var("N"),)),),
        (ParallelLoop("I", Const(1), Var("N"),
                      (assign(ref("A", Const(1)), Var("I") + Const(0.0)),),
                      kind="parallel"),),
    )
    monkeypatch.setattr(par_cli, "annotate_procedure",
                        lambda proc, ctx: (racy, []))

    yield tmp_path
    passes._REGISTRY.pop("shrink", None)


GATE = ["--metrics", "pass:*.ir_size_after", "--threshold", "0"]

EXIT_CODES = [
    # 0: ok
    (0, ["pipeline", "--list-passes"]),
    (0, ["artifacts", "validate", "{tmp}/good.json"]),
    (0, ["perf", "gate", "{tmp}/good.json", "--baseline", "{tmp}/base.json",
         *GATE]),
    # 1: a verdict
    (1, ["pipeline", "-a", "conv", "-p", "shrink", "--verify"]),   # verification
    (1, ["check", "matmul"]),                                      # check error
    (1, ["par", "sanitize", "matmul"]),                            # race conflict
    (1, ["serve", "batch", "{tmp}/doomed.json", "--workers", "1",
         "--no-store"]),                                           # failed job
    (1, ["perf", "gate", "{tmp}/grown.json", "--baseline", "{tmp}/base.json",
         *GATE]),                                                  # regressed
    (1, ["artifacts", "validate", "{tmp}/bare.json"]),             # invalid doc
    (1, ["artifacts", "validate", "{tmp}/broken.json"]),           # bad payload
    # 2: usage, ReproError, unknown command, removed flag
    (2, []),
    (2, ["frobnicate"]),
    (2, ["pipeline"]),                                 # --algorithm required
    (2, ["check", "nonesuch"]),                        # unknown workload
    (2, ["serve", "submit"]),                          # argparse: no WORKLOAD
    (2, ["serve", "gc", "--max-entries", "-1"]),       # would empty the store
    (2, ["serve", "gc", "--max-age-s", "-10"]),
    (2, ["bench", "{tmp}/b.json", "--jobs", "2"]),     # the command is gone
    (2, ["matrix", "resume"]),                         # the matrix db is gone:
    (2, ["matrix", "status"]),                         # argparse knows neither
    (2, ["matrix", "run", "--factor", "workload=matmul", "--db", "x"]),
    (2, ["matrix", "run", "--factor", "workload=matmul", "--fresh"]),
    (2, ["check", "--fresh"]),                         # the request-pointer
    (2, ["obs", "matmul", "--fresh"]),                 # skip tier is gone,
    (2, ["serve", "submit", "matmul", "--out", "r.json"]),  # so is the report
    # a job runs once (only a dead worker's job is re-run): no retry knobs
    (2, ["serve", "submit", "matmul", "--retries", "2"]),
    (2, ["serve", "batch", "{tmp}/doomed.json", "--backoff", "0.05"]),
    (2, ["daemon", "start", "--foreground", "--retries", "2"]),
    (2, ["daemon", "start", "--foreground", "--backoff", "0.05"]),
    (2, ["matrix", "run", "--factor", "workload=matmul", "--retries", "2"]),
    (2, ["report", "{tmp}/e.md", "--retries", "2"]),
    (2, ["matrix", "report", "{tmp}/good.json"]),      # not a matrix artifact
    (2, ["matrix", "report", "{tmp}/broken.json"]),    # invalid artifact file
    (2, ["perf", "record", "{tmp}/bare.json"]),        # bare payload
    (2, ["perf", "gate", "{tmp}/bare.json", "--baseline", "{tmp}/base.json"]),
    (2, ["perf", "gate", "{tmp}/good.json"]),          # no baseline source
    (2, ["perf", "record", "{tmp}/broken.json"]),      # invalid artifact file
    (2, ["perf", "gate", "{tmp}/broken.json", "--baseline", "{tmp}/base.json"]),
    (2, ["perf", "runs", "--limit", "0"]),             # the newest N >= 1
    (2, ["perf", "trend", "pass:block.wall_s", "--limit", "0"]),
    # perf.db is gone, and with it the second spelling of every gate line
    # above and of the committable run file
    (2, ["perf", "runs", "--db", "x"]),
    (2, ["perf", "record", "{tmp}/good.json", "--baseline-out", "{tmp}/z.json"]),
    (2, ["perf", "gate", "{tmp}/good.json", "--baseline-file",
         "{tmp}/base.json", *GATE]),
    (2, ["perf", "gate", "{tmp}/grown.json", "--baseline-file",
         "{tmp}/base.json", *GATE]),
    (2, ["perf", "gate", "{tmp}/bare.json", "--baseline-file",
         "{tmp}/base.json"]),
    (2, ["perf", "gate", "{tmp}/broken.json", "--baseline-file",
         "{tmp}/base.json"]),
    (2, ["artifacts", "cat", "{tmp}/absent.json"]),
    # 3: nothing to gate against
    (3, ["perf", "gate", "{tmp}/good.json", "--baseline", "nosuch"]),
]


@pytest.mark.parametrize(
    "want,argv", EXIT_CODES, ids=[" ".join(a) or "(none)" for _, a in EXIT_CODES]
)
def test_exit_code_contract(world, want, argv, capsys):
    argv = [a.format(tmp=world) for a in argv]
    assert cli.main(argv) == want
    if want == 2:
        captured = capsys.readouterr()
        assert "error" in captured.err or "usage" in captured.out


@pytest.mark.parametrize("argv", [
    ["artifacts", "validate", "{tmp}/broken.json"],
    ["perf", "record", "{tmp}/broken.json"],
    ["perf", "gate", "{tmp}/broken.json", "--baseline", "{tmp}/base.json"],
    ["matrix", "report", "{tmp}/broken.json"],
], ids=["artifacts validate", "perf record", "perf gate", "matrix report"])
def test_shape_broken_file_is_reported_as_payload_rows(world, argv, capsys):
    cli.main([a.format(tmp=world) for a in argv])
    captured = capsys.readouterr()
    text = captured.out + captured.err
    assert "artifact/invalid-payload: rows[0]: want object, got null" in text
    assert "Traceback" not in text
    if argv[0] == "perf":  # and nothing reached the run history
        assert cli.main(["perf", "runs"]) == 0
        assert capsys.readouterr().out.strip() == "no recorded runs"


def test_invalid_artifact_exits_2_prints_every_problem_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    from repro.par import cli as par_cli

    monkeypatch.setattr(
        par_cli, "build_report",
        lambda entries, meta=None: {"workloads": 7},
    )
    out = tmp_path / "classify.json"
    assert cli.main(["par", "classify", "matmul", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid artifact" in err
    assert err.count("artifact/invalid-payload") >= 2  # summary + each problem
    assert not out.exists()


# ---- (c) the routes --------------------------------------------------------


class TestRoutes:
    def test_both_daemon_spellings_reach_one_handler(self, monkeypatch):
        from repro.daemon import cli as daemon_cli

        seen = []
        monkeypatch.setattr(daemon_cli, "_cmd_start",
                            lambda args: seen.append(vars(args)) or 0)
        tail = ["start", "--foreground", "--workers", "3", "--store-dir", "s"]

        assert cli.main(["daemon", *tail]) == 0
        monkeypatch.setattr(sys, "argv", ["repro.daemon", *tail])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("repro.daemon", run_name="__main__")
        assert done.value.code == 0

        direct, forwarded = seen
        assert direct == forwarded
        assert direct["foreground"] and direct["workers"] == 3

    def test_background_start_relaunches_the_same_command_line(self, monkeypatch):
        from repro.daemon import state

        spawned = {}

        def fake_spawn(argv_tail, wait_s, store_root):
            spawned.update(tail=argv_tail, wait_s=wait_s, root=store_root)
            return {"pid": 1, "host": "127.0.0.1", "port": 9}

        monkeypatch.setattr(state, "spawn_background", fake_spawn)
        assert cli.main(["daemon", "start", "--workers", "3", "--obs", "o.json",
                         "--store-dir", "s", "--wait", "7"]) == 0
        assert spawned == {
            "tail": ["--workers", "3", "--obs", "o.json", "--store-dir", "s",
                     "--wait", "7"],
            "wait_s": 7.0, "root": "s",
        }

    def test_old_per_package_spelling_is_gone(self):
        proc = subprocess.run([sys.executable, "-m", "repro.serve", "stats"],
                              env=ENV, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode != 0
        assert "No module named" in proc.stderr

