"""Tests for the crash-safe sweep layer (SweepRunner)."""

from __future__ import annotations

import json

import pytest

import repro.bench.sweeprun as sweeprun_module
from repro.bench.runner import build_cases, case_key, sweep
from repro.bench.store import load_journal, read_journal
from repro.bench.sweeprun import (
    BACKOFF_CAP,
    FailCell,
    SlowCell,
    SweepError,
    SweepRunner,
    backoff_delay,
    matrix_digest,
)

ALGO = ["sublog"]
SIZES = [32, 64]
SEEDS = [1, 2]


@pytest.fixture(scope="module")
def cases():
    return build_cases(ALGO, "kout", SIZES, SEEDS)


@pytest.fixture(scope="module")
def plain_results():
    return sweep(ALGO, "kout", SIZES, SEEDS)


class TestFailureIsolation:
    def test_injected_crash_becomes_failure_record(self, cases, plain_results):
        # Acceptance criterion: the crashed cell is recorded as failed
        # after its retry budget; every other cell's result is intact.
        runner = SweepRunner(retries=2, fault_hook=FailCell(n=64, seed=2))
        report = runner.run(cases)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.attempts == 3
        assert failure.error_type == "RuntimeError"
        assert "injected fault" in failure.error_message
        assert failure.case.n == 64 and failure.case.seed == 2
        assert report.results == [r for r in plain_results if (r.n, r.seed) != (64, 2)]

    def test_sweep_raises_after_finishing_siblings(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        runner = SweepRunner(
            retries=1, journal=journal, fault_hook=FailCell(n=64, seed=2)
        )
        with pytest.raises(SweepError) as excinfo:
            sweep(ALGO, "kout", SIZES, SEEDS, runner=runner)
        assert len(excinfo.value.failures) == 1
        _manifest, results, failures = load_journal(journal)
        assert len(results) == len(cases) - 1
        assert len(failures) == 1


#: A matrix whose namedropper cells fail in the protocol's own
#: constructor (an unknown mode) while its sublog cells run fine.
BOGUS_MATRIX = dict(
    algorithms=["namedropper", "sublog"],
    topology="kout",
    sizes=[16, 24],
    seeds=[1],
    params_by_algorithm={"namedropper": {"mode": "bogus"}},
)


def _assert_names_the_namedropper_cells(error: SweepError) -> None:
    named = [(failure.case.algorithm, failure.case.n) for failure in error.failures]
    assert named == [("namedropper", 16), ("namedropper", 24)]
    assert {failure.error_type for failure in error.failures} == {"ValueError"}


class TestOnePath:
    """Every sweep ends a failing cell the same way, serial or pooled."""

    def test_plain_sweep_raises_after_the_sibling_cells(self, monkeypatch):
        ran = []
        real_run_case = sweeprun_module.run_case

        def recording_run_case(case, **kwargs):
            ran.append(case.algorithm)
            return real_run_case(case, **kwargs)

        monkeypatch.setattr(sweeprun_module, "run_case", recording_run_case)
        with pytest.raises(SweepError) as excinfo:
            sweep(**BOGUS_MATRIX)
        _assert_names_the_namedropper_cells(excinfo.value)
        assert ran == ["namedropper", "sublog", "namedropper", "sublog"]

    def test_pooled_sweep_raises_after_the_sibling_cells(self):
        events = []
        runner = SweepRunner(workers=2, progress=events.append)
        with pytest.raises(SweepError) as excinfo:
            sweep(**BOGUS_MATRIX, runner=runner)
        _assert_names_the_namedropper_cells(excinfo.value)
        settled = sorted((event.case.algorithm, event.status) for event in events)
        assert settled == [
            ("namedropper", "failed"),
            ("namedropper", "failed"),
            ("sublog", "ok"),
            ("sublog", "ok"),
        ]


class TestRetries:
    def test_retry_recovers_transient_failure(self, cases, plain_results):
        runner = SweepRunner(retries=2, fault_hook=FailCell(n=64, seed=2, fail_attempts=2))
        report = runner.run(cases)
        assert not report.failures
        assert report.results == plain_results
        assert report.retried == 2

    def test_backoff_is_seed_deterministic_and_bounded(self):
        first = [backoff_delay(7, attempt) for attempt in range(8)]
        second = [backoff_delay(7, attempt) for attempt in range(8)]
        assert first == second
        assert all(0 < delay <= BACKOFF_CAP for delay in first)
        assert first != [backoff_delay(8, attempt) for attempt in range(8)]
        # grows until the cap bites
        assert first[1] > first[0] or first[1] == BACKOFF_CAP


class TestTimeout:
    def test_stalled_cell_times_out_serial(self, cases):
        runner = SweepRunner(
            cell_timeout=0.2, fault_hook=SlowCell(2.0, n=64, seed=2)
        )
        report = runner.run(cases)
        assert len(report.failures) == 1
        assert report.failures[0].error_type == "CellTimeout"

    def test_stalled_cell_times_out_in_worker(self, cases):
        runner = SweepRunner(
            workers=2, cell_timeout=0.2, fault_hook=SlowCell(2.0, n=64, seed=2)
        )
        report = runner.run(cases)
        assert len(report.failures) == 1
        assert report.failures[0].error_type == "CellTimeout"


class TestParallelParity:
    def test_workers_match_serial(self, cases, plain_results):
        report = SweepRunner(workers=2, retries=1).run(cases)
        assert report.results == plain_results


class TestJournal:
    def test_journal_records_manifest_results_complete(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal).run(cases)
        records = read_journal(journal)
        assert records[0]["type"] == "manifest"
        assert records[0]["matrix"]["cells"] == len(cases)
        assert records[0]["matrix"]["digest"] == matrix_digest(
            [case_key(case) for case in cases]
        )
        assert [r["type"] for r in records[1:-1]] == ["result"] * len(cases)
        assert records[-1]["type"] == "complete"
        assert records[-1]["completed"] == len(cases)

    def test_failure_is_journaled(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal, fault_hook=FailCell(n=64, seed=2)).run(cases)
        _manifest, results, failures = load_journal(journal)
        assert len(results) == len(cases) - 1
        assert len(failures) == 1
        (record,) = failures.values()
        assert record["error"]["type"] == "RuntimeError"
        assert "injected fault" in record["error"]["traceback"]

    def test_existing_journal_without_resume_refuses(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal).run(cases)
        with pytest.raises(FileExistsError):
            SweepRunner(journal=journal).run(cases)

    def test_digest_mismatch_refuses_resume(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal).run(cases)
        other = build_cases(ALGO, "kout", [128], SEEDS)
        with pytest.raises(ValueError, match="different case matrix"):
            SweepRunner(journal=journal, resume=True).run(other)

    def test_torn_tail_line_is_tolerated(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal, fault_hook=FailCell(n=64, seed=2)).run(cases)
        with open(journal, "a") as stream:
            stream.write('{"type": "result", "key": "torn')  # crash mid-append
        report = SweepRunner(journal=journal, resume=True).run(cases)
        assert not report.failures
        assert report.resumed == len(cases) - 1


class TestResume:
    def test_resume_skips_done_cells_and_reruns_failures(
        self, cases, plain_results, tmp_path
    ):
        journal = tmp_path / "sweep.jsonl"
        first = SweepRunner(journal=journal, fault_hook=FailCell(n=64, seed=2)).run(
            cases
        )
        assert len(first.failures) == 1
        # Second run without the injected fault: only the failed cell runs.
        second = SweepRunner(journal=journal, resume=True).run(cases)
        assert second.resumed == len(cases) - 1
        assert not second.failures
        assert second.results == plain_results

    def test_resumed_results_identical_to_uninterrupted(
        self, cases, plain_results, tmp_path
    ):
        # Simulate an interruption by truncating the journal after two
        # result records, then resume.
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal).run(cases)
        records = read_journal(journal)
        kept = [records[0]] + [r for r in records if r.get("type") == "result"][:2]
        journal.write_text(
            "".join(json.dumps(record, sort_keys=True) + "\n" for record in kept)
        )
        report = SweepRunner(journal=journal, resume=True).run(cases)
        assert report.resumed == 2
        assert report.results == plain_results

    def test_progress_reports_resumed_cells(self, cases, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        SweepRunner(journal=journal).run(cases)
        events = []
        SweepRunner(journal=journal, resume=True, progress=events.append).run(cases)
        assert len(events) == len(cases)
        assert all(event.status == "resumed" for event in events)
        assert events[-1].completed == len(cases)


class TestProgress:
    def test_one_event_per_cell_with_running_counts(self, cases):
        events = []
        SweepRunner(
            retries=1,
            progress=events.append,
            fault_hook=FailCell(n=64, seed=2),
        ).run(cases)
        assert len(events) == len(cases)
        assert [event.status for event in events].count("failed") == 1
        final = events[-1]
        assert final.completed == len(cases) - 1
        assert final.failed == 1
        assert final.retried == 2  # the failing cell burned both attempts
        assert final.total == len(cases)
        assert "FAILED" in next(e for e in events if e.status == "failed").format()


class TestSweepThreading:
    def test_sweep_reports_progress_through_its_runner(self, plain_results):
        events = []
        results = sweep(
            ALGO, "kout", SIZES, SEEDS, runner=SweepRunner(progress=events.append)
        )
        assert results == plain_results
        assert len(events) == len(plain_results)
        assert all(event.status == "ok" for event in events)

    def test_for_stage_forks_the_journal(self, tmp_path):
        runner = SweepRunner(workers=3, retries=2, journal=tmp_path / "exp.jsonl")
        staged = runner.for_stage("kout")
        assert staged.journal.name == "exp.kout.jsonl"
        assert (staged.workers, staged.retries) == (3, 2)
        assert runner.journal.name == "exp.jsonl"
        assert runner.for_stage("F3").for_stage("path").journal.name == (
            "exp.F3.path.jsonl"
        )
        assert SweepRunner().for_stage("kout").journal is None

    def test_resume_without_a_journal_is_refused(self):
        with pytest.raises(ValueError, match="needs a journal"):
            SweepRunner(resume=True)
