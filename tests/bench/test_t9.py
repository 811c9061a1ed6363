"""T9 load-realism experiment: shape, journaling, and resume."""

from __future__ import annotations

import pytest

from repro.bench.experiments import get_experiment
from repro.bench.seeds import Scale
from repro.bench.store import load_journal
from repro.bench.sweeprun import SweepRunner

TINY = Scale(
    name="tiny",
    seeds=(11,),
    sweep_sizes=(24,),
    focus_n=48,
    big_n=48,
)


class TestT9:
    def test_tables_cover_all_stages(self):
        report = get_experiment("T9").run(TINY)
        titles = [artifact.title for artifact in report.artifacts]
        assert any("T9a" in title for title in titles)
        assert any("T9b" in title for title in titles)
        assert any("T9c" in title for title in titles)
        assert any("T9d" in title for title in titles)
        assert set(report.summary) == {"zipf", "flash", "failures", "dynamic"}
        # completion rates are fractions
        for rates in report.summary["failures"].values():
            assert 0.0 <= rates["correlated_rate"] <= 1.0
            assert 0.0 <= rates["random_rate"] <= 1.0

    def test_journal_then_resume_reproduces_report(self, tmp_path):
        journal = tmp_path / "t9.jsonl"
        first = get_experiment("T9").run(TINY, SweepRunner(journal=journal))
        staged = sorted(path.name for path in tmp_path.iterdir())
        assert staged == [
            "t9.t9a.jsonl",
            "t9.t9b.jsonl",
            "t9.t9c.jsonl",
            "t9.t9d.jsonl",
        ]
        manifest, results, failures = load_journal(tmp_path / "t9.t9a.jsonl")
        assert manifest["experiment"] == "T9"
        assert results and not failures
        resumed = get_experiment("T9").run(
            TINY, SweepRunner(journal=journal, resume=True)
        )
        assert resumed.render() == first.render()

    def test_resume_fills_a_truncated_journal(self, tmp_path):
        journal = tmp_path / "t9.jsonl"
        get_experiment("T9").run(TINY, SweepRunner(journal=journal))
        # Drop the last recorded cell; resume must recompute only it.
        staged = tmp_path / "t9.t9a.jsonl"
        lines = staged.read_text().splitlines()
        staged.write_text("\n".join(lines[:-1]) + "\n")
        before = len(load_journal(staged)[1])
        resumed = get_experiment("T9").run(
            TINY, SweepRunner(journal=journal, resume=True)
        )
        after = len(load_journal(staged)[1])
        assert after == before + 1
        assert resumed.artifacts

    def test_rerun_without_resume_refuses_the_journal(self, tmp_path):
        journal = tmp_path / "t9.jsonl"
        get_experiment("T9").run(TINY, SweepRunner(journal=journal))
        staged = tmp_path / "t9.t9a.jsonl"
        finished = staged.read_text()
        with pytest.raises(FileExistsError, match="--resume"):
            get_experiment("T9").run(TINY, SweepRunner(journal=journal))
        assert staged.read_text() == finished

    def test_resume_at_another_scale_refuses_the_journal(self, tmp_path):
        journal = tmp_path / "t9.jsonl"
        get_experiment("T9").run(TINY, SweepRunner(journal=journal))
        staged = tmp_path / "t9.t9a.jsonl"
        finished = staged.read_text()
        smaller = Scale(
            name="tiny", seeds=TINY.seeds, sweep_sizes=TINY.sweep_sizes, focus_n=40, big_n=48
        )
        with pytest.raises(ValueError, match="different case matrix"):
            get_experiment("T9").run(smaller, SweepRunner(journal=journal, resume=True))
        assert staged.read_text() == finished
