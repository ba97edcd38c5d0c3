"""``python -m repro report``: --progress lines, partial output, exit codes."""

from __future__ import annotations

import pytest

from repro import cli
from repro.bench import report
from repro.bench.harness import Table


def main(argv: list) -> int:
    return cli.main(["report", *argv])


def fake_table(title: str) -> Table:
    t = Table(
        title=title,
        paper_ref="test ref",
        machine="test machine",
        columns=("variant", "seconds"),
    )
    t.add(variant="orig", seconds=1.0)
    return t


@pytest.fixture
def patched_builders(monkeypatch):
    """Swap the real (minutes-long) table builders for instant fakes."""

    def use(builders):
        monkeypatch.setattr(report, "_builders", lambda scale: builders)

    return use


class TestBuildAll:
    def test_failure_is_collected_not_raised(self, patched_builders):
        def boom():
            raise RuntimeError("simulated table crash")

        patched_builders([("good", lambda: fake_table("good")), ("bad", boom)])
        tables, elapsed, failures = report.build_all(progress=False)
        assert [t.title for t in tables] == ["good"]
        assert len(failures) == 1
        assert failures[0][0] == "bad"
        assert "simulated table crash" in failures[0][1]

    def test_progress_lines(self, patched_builders, capsys):
        patched_builders([("T9 fake", lambda: fake_table("T9"))])
        report.build_all(progress=True)
        assert "T9 fake: done in" in capsys.readouterr().out


class TestMainExitCodes:
    def test_all_tables_ok_exits_zero(self, patched_builders, tmp_path, capsys):
        patched_builders([("only", lambda: fake_table("Only Table"))])
        path = tmp_path / "EXPERIMENTS.md"
        assert main([str(path)]) == 0
        text = path.read_text()
        assert "## Only Table" in text
        assert "| variant | seconds |" in text

    def test_failing_table_exits_nonzero_but_writes_survivors(
        self, patched_builders, tmp_path, capsys
    ):
        def boom():
            raise RuntimeError("simulated table crash")

        patched_builders(
            [("alive", lambda: fake_table("Alive")), ("dead", boom)]
        )
        path = tmp_path / "EXPERIMENTS.md"
        assert main(["--progress", str(path)]) == 1
        captured = capsys.readouterr()
        assert "alive: done in" in captured.out
        assert "dead: FAILED after" in captured.out
        assert "TABLE FAILED: dead" in captured.err
        assert "1 table(s) failed" in captured.err
        # the surviving table still landed on disk
        assert "## Alive" in path.read_text()
        assert "## dead" not in path.read_text()


class TestOnlyFilter:
    BUILDERS = [
        ("T1 convolution", lambda: fake_table("T1")),
        ("T5 Givens", lambda: fake_table("T5")),
    ]

    def test_select_builders_substring_case_insensitive(self, patched_builders):
        patched_builders(self.BUILDERS)
        assert [n for n, _ in report.select_builders(4, "t1")] == ["T1 convolution"]
        assert [n for n, _ in report.select_builders(4, "Givens")] == ["T5 Givens"]
        assert len(report.select_builders(4, None)) == 2

    def test_only_builds_the_subset(self, patched_builders, tmp_path, capsys):
        patched_builders(self.BUILDERS)
        path = tmp_path / "partial.md"
        assert main(["--only", "T1", str(path)]) == 0
        text = path.read_text()
        assert "## T1" in text and "## T5" not in text

    def test_only_refuses_default_output_path(self, patched_builders, capsys):
        patched_builders(self.BUILDERS)
        assert main(["--only", "T1"]) == 2
        assert "refusing to overwrite EXPERIMENTS.md" in capsys.readouterr().err

    def test_only_with_no_match_is_an_error(self, patched_builders, tmp_path, capsys):
        patched_builders(self.BUILDERS)
        assert main(["--only", "T9", str(tmp_path / "x.md")]) == 2
        err = capsys.readouterr().err
        assert "matches no table" in err
        assert "T1 convolution" in err  # the known names are listed


class TestObsFlag:
    def test_obs_writes_valid_metrics(self, patched_builders, tmp_path, capsys):
        import json

        from repro.artifacts import payload_of, validate_document

        patched_builders([("only", lambda: fake_table("Only"))])
        out_md = tmp_path / "exp.md"
        obs_path = tmp_path / "obs.json"
        assert main(["--obs", str(obs_path), str(out_md)]) == 0
        assert "obs metrics written to" in capsys.readouterr().out
        env = json.loads(obs_path.read_text())
        assert validate_document(env) == []
        doc = payload_of(env)
        assert doc["meta"]["tool"] == "repro.bench.report"
