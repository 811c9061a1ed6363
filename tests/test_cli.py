"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.bench.seeds import Scale
from repro.bench.store import read_journal
from repro.cli import build_parser, main


class TestList:
    def test_list_prints_registries(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "sublog" in out
        assert "kout" in out
        assert "T1" in out


class TestRun:
    def test_run_prints_summary(self, capsys):
        code = main(
            ["run", "--algorithm", "sublog", "--topology", "kout", "--n", "48",
             "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed : True" in out
        assert "rounds" in out

    def test_run_with_loss(self, capsys):
        code = main(
            ["run", "--algorithm", "sublog", "--topology", "kout", "--n", "32",
             "--seed", "2", "--loss", "0.05"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dropped" in out

    def test_run_weak_goal(self, capsys):
        code = main(
            ["run", "--algorithm", "swamping", "--topology", "star_in", "--n", "16",
             "--goal", "weak"]
        )
        assert code == 0
        assert "goal      : weak" in capsys.readouterr().out

    def test_run_random_id_space(self, capsys):
        code = main(
            ["run", "--algorithm", "flooding", "--topology", "path", "--n", "12",
             "--id-space", "random"]
        )
        assert code == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "quantum"])

    def test_run_with_delivery_model(self, capsys):
        code = main(
            ["run", "--algorithm", "sublog", "--topology", "kout", "--n", "32",
             "--seed", "2", "--delivery", "adversarial:2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed : True" in out
        assert "adversarial:2" in out

    def test_run_partition_prints_drop_breakdown(self, capsys):
        code = main(
            ["run", "--algorithm", "namedropper", "--topology", "kout",
             "--n", "24", "--seed", "3", "--delivery", "partition:2-5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "partition=" in out

    def test_bad_delivery_spec_rejected(self):
        with pytest.raises(SystemExit):
            main(
                ["run", "--algorithm", "sublog", "--topology", "kout",
                 "--n", "24", "--delivery", "carrier-pigeon"]
            )

    def test_removed_vector_backend_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--algorithm", "sublog", "--n", "24",
                  "--backend", "vector"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'vector'" in capsys.readouterr().err


class TestExperiment:
    def test_experiment_writes_report(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "small")
        # T4 is the fastest experiment; still guard the runtime by scale.
        code = main(["experiment", "T4", "--scale", "small", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "T4" in out
        assert (tmp_path / "T4.txt").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            main(["experiment", "T42"])

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        assert main(["experiment", "F1", "--scale", "small", "--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "--journal" in captured.err


TINY = Scale(name="tiny", seeds=(11,), sweep_sizes=(24, 48), focus_n=48, big_n=48)


@pytest.fixture
def tiny_all(monkeypatch):
    """`experiment all` at a tiny scale, over two sweeping experiments and
    one that runs no sweep."""
    import repro.cli as cli_module
    from repro.bench.experiments import EXPERIMENTS

    subset = {key: EXPERIMENTS[key] for key in ("T1", "F1", "T4")}
    monkeypatch.setattr(cli_module, "EXPERIMENTS", subset)
    monkeypatch.setattr(cli_module, "bench_scale", lambda name: TINY)


class TestExperimentJournal:
    def test_all_gives_each_experiment_its_own_journal(
        self, capsys, tmp_path, tiny_all
    ):
        journal = tmp_path / "exp.jsonl"
        first_dir, second_dir = tmp_path / "a", tmp_path / "b"
        args = ["experiment", "all", "--journal", str(journal)]
        assert main([*args, "--out", str(first_dir)]) == 0
        assert sorted(path.name for path in tmp_path.glob("*.jsonl")) == [
            "exp.F1.jsonl",
            "exp.T1.jsonl",
        ]
        assert main([*args, "--resume", "--out", str(second_dir)]) == 0
        for name in ("T1.txt", "F1.txt", "T4.txt"):
            assert (first_dir / name).read_text() == (second_dir / name).read_text()
        # The resumed run re-ran nothing: 6 algorithms x 2 sizes x 1 seed.
        records = read_journal(tmp_path / "exp.T1.jsonl")
        assert [r["skipped"] for r in records if r["type"] == "resume"] == [12]

    def test_existing_journal_without_resume_is_a_usage_error(
        self, capsys, tmp_path, tiny_all
    ):
        journal = tmp_path / "t1.jsonl"
        assert main(["experiment", "T1", "--journal", str(journal)]) == 0
        capsys.readouterr()
        assert main(["experiment", "T1", "--journal", str(journal)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "already exists" in captured.err
        assert len(captured.err.splitlines()) == 1

    def test_failed_cells_are_reported_and_all_goes_on(
        self, capsys, monkeypatch, tiny_all
    ):
        import repro.bench.sweeprun as sweeprun_module

        real_run_case = sweeprun_module.run_case

        def flooding_fails(case, **kwargs):
            if case.algorithm == "flooding":
                raise RuntimeError("injected flooding fault")
            return real_run_case(case, **kwargs)

        monkeypatch.setattr(sweeprun_module, "run_case", flooding_fails)
        assert main(["experiment", "all"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines[0] == "error: T1: 2 cell(s) failed:"
        assert lines[1] == (
            "  flooding n=24 seed=11: RuntimeError: injected flooding fault "
            "(after 1 attempts)"
        )
        assert "error: F1: 2 cell(s) failed:" in lines
        assert len(lines) == 6
        # The experiment that runs no sweep still ran and reported.
        assert "(T4 took" in captured.out
        assert "(T1 took" not in captured.out


class TestSweep:
    def test_sweep_saves_results(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--algorithms", "sublog", "--sizes", "24", "--seeds", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert "saved 1 results" in capsys.readouterr().out
        from repro.bench.store import load_metadata, load_results

        assert len(load_results(out)) == 1
        assert load_metadata(out)["topology"] == "kout"

    def test_resume_without_journal_is_a_usage_error(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--algorithms", "flooding", "--sizes", "16", "--seeds", "1",
             "--out", str(out), "--resume"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "--journal" in captured.err
        assert not out.exists()

    def test_sweep_with_delivery_records_metadata(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", "--algorithms", "namedropper", "--sizes", "16",
             "--seeds", "1", "--delivery", "perlink:2", "--out", str(out)]
        )
        assert code == 0
        from repro.bench.store import load_metadata, load_results

        assert load_metadata(out)["delivery"] == "perlink:2"
        results = load_results(out)
        assert all(set(r.delivery_delays) <= {1, 2, 3} for r in results)


class TestTraceAndSparkline:
    def test_trace_file_written(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--algorithm", "sublog", "--topology", "kout", "--n", "24",
             "--trace", str(trace)]
        )
        assert code == 0
        assert trace.exists()
        assert trace.read_text().strip()

    def test_sparkline_printed(self, capsys):
        code = main(
            ["run", "--algorithm", "swamping", "--topology", "star_in",
             "--n", "16", "--sparkline"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "converge" in out
        assert "t100=" in out


class TestParser:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestServe:
    def test_serve_verifies_digest_against_sim(self, capsys):
        code = main(
            ["serve", "--n", "6", "--seed", "3", "--algorithm", "namedropper",
             "--verify-digest"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out
        assert "complete  : True" in out

    def test_serve_exact_rounds_mid_run(self, capsys):
        code = main(
            ["serve", "--n", "6", "--seed", "5", "--rounds", "2",
             "--verify-digest"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MATCH" in out

    def test_serve_kill_outside_fleet_is_a_usage_error(self, capsys):
        code = main(
            ["serve", "--n", "8", "--algorithm", "flooding", "--seed", "7",
             "--kill", "99@2"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.splitlines() == ["error: fault plan kills non-existent nodes: [99]"]

    def test_serve_restart_after_a_kill_that_never_fired(self, capsys):
        # Flooding closes long before round 50, so node 3 never dies.
        code = main(
            ["serve", "--n", "8", "--algorithm", "flooding", "--seed", "7",
             "--kill", "3@50", "--restart", "3", "--verify-digest"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "survivors : 8/8" in out
        assert "restarted" not in out
        assert "MATCH" in out


class TestLoadgen:
    def test_loadgen_self_hosted(self, capsys):
        code = main(
            ["loadgen", "--n", "6", "--seed", "2", "--requests", "20",
             "--concurrency", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consistent=True" in out
        assert "valid=True" in out


class TestFuzz:
    def test_fuzz_smoke(self, capsys):
        code = main(["fuzz", "--cases", "6", "--seed", "3", "--max-n", "10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "case    0" in out
        assert "6 cases, 0 failure(s)" in out

    def test_fuzz_quiet_writes_report(self, capsys, tmp_path):
        path = tmp_path / "fuzz.jsonl"
        code = main(
            ["fuzz", "--cases", "3", "--seed", "4", "--max-n", "8",
             "--quiet", "--no-differential", "--out", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        # Quiet: no per-case lines, just the one-line summary.
        assert out.splitlines()[0].startswith("fuzz:")
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + 3 + 1  # manifest + cases + summary

    def test_fuzz_algorithm_filter(self, capsys):
        code = main(
            ["fuzz", "--cases", "3", "--seed", "5", "--max-n", "8",
             "--algorithms", "flooding", "--quiet", "--no-differential"]
        )
        assert code == 0
        assert "3 cases" in capsys.readouterr().out

    def test_replay_literal_json(self, capsys):
        from repro.oracle import ScheduleScript

        script = ScheduleScript(
            algorithm="flooding", topology="path", n=6, seed=1
        )
        code = main(["fuzz", "--replay", script.to_json()])
        out = capsys.readouterr().out
        assert code == 0
        assert "replaying flooding/path" in out
        assert "clean: completed=True" in out

    def test_replay_from_file(self, capsys, tmp_path):
        from repro.oracle import ScheduleScript

        script = ScheduleScript(
            algorithm="swamping", topology="cycle", n=8, seed=2,
            delivery="jitter:1",
        )
        path = tmp_path / "script.json"
        path.write_text(script.to_json())
        code = main(["fuzz", "--replay", str(path)])
        assert code == 0
        assert "clean" in capsys.readouterr().out
