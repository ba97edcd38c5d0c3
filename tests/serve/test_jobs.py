"""JobSpec validation, store keys, and the worker-side executor."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from repro.errors import PipelineError
from repro.matrix.grid import GridSpec, cell_spec
from repro.serve.jobs import JobSpec, execute_job, job_key, result_fingerprint
from repro.serve.store import ArtifactStore, key_digest

ROOT = Path(__file__).resolve().parents[2]

#: derive / check / execute store digests (first 16 hex) at a5cd79e, when
#: every Affine coefficient in the context facts was still a Fraction
PARENT_DIGESTS = {
    "aconv": ("9109d0ca1cacaa8b", "f4194a16d24842d7", "1c1563e970ab016c"),
    "conv": ("014fecc71da0201f", "057ee94d27f8185d", "ad11075df74f767e"),
    "givens": ("0dfa930632c5b483", "13e4f38db177881a", "6b5b4357b63895ca"),
    "lu_nopivot": ("22bfb3f1264be4a8", "193c03be480f66b5", "0813cba3c163c143"),
    "lu_pivot": ("c3b2561064246563", "7e5f591b84027ef0", "2e8813a63bea0f33"),
    "matmul": ("2b5948b00ed57da6", "9861a9ac32d3d9e7", "8703d188f9677697"),
}


class TestJobSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(PipelineError, match="unknown job kind"):
            JobSpec(kind="transmogrify")

    def test_passes_coerced_to_tuple(self):
        spec = JobSpec(workload="lu_nopivot", passes=["split", "block"])
        assert spec.passes == ("split", "block")

    def test_display_prefers_label(self):
        assert JobSpec(workload="conv", label="smoke").display == "smoke"
        assert (
            JobSpec(workload="conv", passes=("distribute",)).display
            == "derive:conv:distribute"
        )

    def test_dict_roundtrip(self):
        spec = JobSpec(
            kind="execute", workload="givens", passes=("givens_opt",),
            options={"unroll": 2}, check=True, timeout_s=60.0, label="x",
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_accepts_comma_passes(self):
        spec = JobSpec.from_dict({"workload": "lu_nopivot", "passes": "split, block"})
        assert spec.passes == ("split", "block")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(PipelineError, match="unknown job spec field"):
            JobSpec.from_dict({"workload": "conv", "retries": 3})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(PipelineError, match="must be an object"):
            JobSpec.from_dict(["conv"])

    @pytest.mark.parametrize("text", ["NaN", "0", "-1", "Infinity", "1e300"])
    def test_timeout_outside_the_waitable_range_is_refused(self, text):
        # json.loads takes every one of these; a NaN deadline never came
        # due, so the job ran to its end
        doc = json.loads(f'{{"kind": "probe", "timeout_s": {text}}}')
        with pytest.raises(PipelineError, match=r"timeout_s must be .* in \(0, "):
            JobSpec.from_dict(doc)


class TestJobKey:
    def digest(self, spec: JobSpec) -> str:
        return ArtifactStore(root="").digest(job_key(spec))

    def test_identical_specs_share_a_key(self):
        a = JobSpec(workload="matmul")
        b = JobSpec(workload="matmul", label="other-label")  # label is cosmetic
        assert job_key(a) == job_key(b)
        assert self.digest(a) == self.digest(b)

    def test_key_varies_with_recipe_check_and_kind(self):
        base = JobSpec(workload="lu_nopivot")
        assert job_key(base) != job_key(JobSpec(workload="lu_nopivot", passes=("split",)))
        assert job_key(base) != job_key(JobSpec(workload="lu_nopivot", check=True))
        assert job_key(base) != job_key(JobSpec(kind="execute", workload="lu_nopivot"))

    @pytest.mark.parametrize("workload", sorted(PARENT_DIGESTS))
    def test_store_keys_do_not_move_with_the_number_type(self, workload):
        """The key text spells every fact number ``("q", n, d)`` whatever
        ``Affine`` holds in memory: an existing store stays warm."""
        got = tuple(
            self.digest(JobSpec(kind=kind, workload=workload))[:16]
            for kind in ("derive", "check", "execute")
        )
        assert got == PARENT_DIGESTS[workload]

    def test_committed_sweep_is_sixteen_computations(self):
        """``BENCH_matrix.json`` holds the demo grid's 24 cells as one row
        per computation, keyed by ``job_key`` + ``key_digest`` alone (no
        cell is executed): a cell is keyed by the sizes it binds and conv
        reads no ``b``, so its 12 cells are 4 computations."""
        grid = json.loads((ROOT / "examples" / "matrix_demo_grid.json").read_text())
        rows = json.loads((ROOT / "BENCH_matrix.json").read_text())["payload"]["rows"]
        groups: dict = {}
        for c in GridSpec.from_json(grid).cells():
            groups.setdefault(key_digest(job_key(cell_spec(c))), []).append(c)
        assert len(rows) == len(groups) == 16
        assert sorted(r["digest"] for r in rows) == sorted(groups)
        assert sorted(len(g) for g in groups.values()) == [1] * 12 + [3] * 4

    def test_probe_keys_on_options_only(self):
        a = JobSpec(kind="probe", options={"action": "ok", "value": 1})
        b = JobSpec(kind="probe", options={"value": 1, "action": "ok"})
        c = JobSpec(kind="probe", options={"action": "ok", "value": 2})
        assert job_key(a) == job_key(b)
        assert job_key(a) != job_key(c)

    def test_non_scalar_option_rejected(self):
        spec = JobSpec(kind="probe", options={"callback": {"nested": True}})
        with pytest.raises(PipelineError, match="JSON scalars"):
            job_key(spec)

    def test_unknown_workload_raises_terminal_error(self):
        with pytest.raises(PipelineError):
            job_key(JobSpec(workload="no_such_workload"))

    @pytest.mark.parametrize("unroll", [2.5, "4", 0, -1, True])
    def test_unroll_must_be_an_int_of_at_least_one(self, unroll):
        """Keyed and run alike: no coercion to 2 or 4, no silent no-op jam
        under a context built from the raw value."""
        spec = JobSpec.from_dict({"workload": "conv", "options": {"unroll": unroll}})
        with pytest.raises(PipelineError, match="unroll must be an int >= 1"):
            job_key(spec)
        with pytest.raises(PipelineError, match="unroll must be an int >= 1"):
            execute_job(spec)

    @pytest.mark.parametrize("factor", [2.5, "4", "4x", 0, -4, True])
    def test_factor_must_be_an_int_of_at_least_one_or_a_name(self, factor):
        """Failed terminally at keying, not a float ``VerificationError``
        or an ``error`` span from inside the ``block`` pass."""
        spec = JobSpec.from_dict({"workload": "lu_nopivot", "options": {"factor": factor}})
        with pytest.raises(PipelineError, match="factor must be an int >= 1"):
            job_key(spec)
        with pytest.raises(PipelineError, match="factor must be an int >= 1"):
            execute_job(spec)

    def test_a_usable_unroll_is_keyed_and_run(self):
        spec = JobSpec(workload="conv", options={"unroll": 2})
        assert job_key(spec) != job_key(JobSpec(workload="conv"))
        assert "jam" in execute_job(spec)["passes"]


class TestExecutor:
    def test_derive_returns_the_serializable_summary(self):
        value = execute_job(JobSpec(workload="matmul"))
        assert value["workload"] == "matmul"
        assert value["pass_executions"] == len(value["passes"]) > 0
        assert isinstance(value["fingerprint"], str)
        assert "DO" in value["ir"]
        assert value["elapsed_s"] >= 0
        assert result_fingerprint(value) == value["fingerprint"]

    def test_derive_is_deterministic_across_calls(self):
        a = execute_job(JobSpec(workload="matmul"))
        b = execute_job(JobSpec(workload="matmul"))
        assert a["fingerprint"] == b["fingerprint"]
        assert a["ir"] == b["ir"]

    def test_served_check_is_the_cli_check(self, tmp_path):
        """``serve submit W --kind check`` and ``repro check W`` run one
        study: same diagnostic counts (``lint/par-*`` included), same
        verdicts."""
        from repro import cli
        from repro.artifacts import load_file

        out = tmp_path / "check.json"
        assert cli.main(["check", "givens", "--out", str(out)]) == 0
        report = load_file(out)["payload"]
        served = execute_job(JobSpec(kind="check", workload="givens"))
        assert served["diagnostics"] == len(report["diagnostics"])
        assert any(d["rule"].startswith("lint/par-") for d in report["diagnostics"])
        assert served["errors"] == report["summary"]["error"]
        assert served["warnings"] == report["summary"]["warning"]
        # the report's verdicts are its lint/* diagnostics
        lint = [d for d in report["diagnostics"]
                if d["rule"] in ("lint/blockable", "lint/not-blockable")]
        assert [(f"givens_point/DO {v['loop']}", f"lint/{v['verdict']}", v["reason"])
                for v in served["verdicts"]] == [
            (d["path"], d["rule"], d["message"]) for d in lint]

    def test_served_check_audits_the_recipe_its_key_names(self, monkeypatch):
        """A ``check`` job is stored under its recipe and
        ``context(unroll)``, so it must lint and derive under those: an
        unroll-6 conv audit at the default unroll of 4 would be filed under
        the wrong content address."""
        import inspect

        import repro.check as check
        from repro.pipeline.workloads import get_workload

        want = get_workload("conv").context(6).facts_key()
        assert want != get_workload("conv").context(None).facts_key()
        linted, derived = [], []
        real_lint, real_derive = check.lint_blockability, check.derive
        monkeypatch.setattr(check, "lint_blockability",
                            lambda proc, ctx: linted.append(ctx.facts_key()) or real_lint(proc, ctx))
        bind = inspect.signature(real_derive).bind
        monkeypatch.setattr(check, "derive", lambda *a, **kw: derived.append(
            bind(*a, **kw).arguments) or real_derive(*a, **kw))
        value = execute_job(JobSpec(kind="check", workload="conv",
                                    passes=("split", "jam"), options={"unroll": 6}))
        assert linted == [want]
        assert [(d["passes"], d["unroll"], d["factor"]) for d in derived] == [
            (["split", "jam"], 6, None)]
        assert value["errors"] == 0

    def test_probe_ok(self):
        value = execute_job(JobSpec(kind="probe", options={"action": "ok"}))
        assert value["pid"] == os.getpid()

    def test_probe_raise_raises(self):
        with pytest.raises(RuntimeError, match="probe raised"):
            execute_job(JobSpec(kind="probe", options={"action": "raise"}))

    def test_probe_unknown_action_rejected(self):
        with pytest.raises(PipelineError, match="unknown probe action"):
            execute_job(JobSpec(kind="probe", options={"action": "lurk"}))

    def test_probe_flaky_fails_then_recovers(self, tmp_path):
        flag = str(tmp_path / "flag")
        spec = JobSpec(kind="probe", options={"action": "flaky", "flag_file": flag})
        # the first attempt kills its own process: run it in a child
        child = multiprocessing.get_context("fork").Process(
            target=execute_job, args=(spec,))
        child.start()
        child.join(30.0)
        assert child.exitcode == -signal.SIGKILL
        assert execute_job(spec)["probe"] == "recovered"

    def test_result_fingerprint_tolerates_junk(self):
        assert result_fingerprint(None) is None
        assert result_fingerprint({"fingerprint": 42}) is None
        assert result_fingerprint({}) is None
