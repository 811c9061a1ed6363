"""Tests for the differential runner and the lockstep reductions."""

from __future__ import annotations

import pytest

from repro.oracle import ScheduleScript
from repro.oracle.differential import (
    diff_engines,
    diff_fast_vs_legacy,
    diff_reduction,
    engine_digest,
    lockstep_reduction,
)
from repro.oracle.fuzzer import make_skip_delivery_hook

CLEAN = ScheduleScript(
    algorithm="sublog", topology="kout", n=16, seed=7, topology_params={"k": 3}
)
HOSTILE = ScheduleScript(
    algorithm="namedropper",
    topology="kout",
    n=14,
    seed=11,
    goal="strong_alive",
    delivery="jitter:2",
    loss_rate=0.1,
    crash_rounds={2: 4},
    join_rounds={5: 3},
    topology_params={"k": 2},
)


class TestFastVsLegacy:
    @pytest.mark.parametrize("script", (CLEAN, HOSTILE), ids=("clean", "hostile"))
    def test_paths_agree(self, script):
        report = diff_fast_vs_legacy(script)
        assert report.equal
        assert report.completed
        assert report.rounds > 0
        assert "fast-path == legacy" in report.describe()

    def test_divergence_is_localized(self):
        # Sabotage the fast-path engine only: the diff must pinpoint the
        # first divergent round instead of merely failing at the end.
        engine_a = CLEAN.build_engine(backend="fast")
        engine_b = CLEAN.build_engine(backend="legacy")
        make_skip_delivery_hook()(engine_a)
        report = diff_engines(
            engine_a, engine_b, max_rounds=CLEAN.resolved_max_rounds()
        )
        assert not report.equal
        assert report.divergence is not None
        assert report.divergence.round_no == report.rounds
        assert "!=" in report.describe()

    def test_mismatched_inputs_reported_at_round_zero(self):
        other = ScheduleScript(
            algorithm="sublog", topology="kout", n=16, seed=8,
            topology_params={"k": 3},
        )
        report = diff_engines(
            CLEAN.build_engine(), other.build_engine(), max_rounds=5
        )
        assert not report.equal
        assert report.divergence.round_no == 0

    def test_enforcement_toggle_passthrough(self):
        report = diff_fast_vs_legacy(CLEAN, enforce_legality=False)
        assert report.equal


class TestLockstepReduction:
    def test_reduction_specs(self):
        assert lockstep_reduction(None, 20) is None
        assert lockstep_reduction("lockstep", 20) is None
        assert lockstep_reduction("jitter:3", 20) == "jitter:0"
        assert lockstep_reduction("adversarial:2", 20) == "adversarial:0"
        assert lockstep_reduction("perlink:2", 20) == "perlink:0"
        # The window must land strictly beyond the last delivery round.
        assert lockstep_reduction("partition:4-8", 20) == "partition:22-22"

    @pytest.mark.parametrize(
        "delivery", ("jitter:2", "adversarial:2", "perlink:2", "partition:3-5")
    )
    def test_degenerate_models_match_lockstep(self, delivery):
        script = ScheduleScript(
            algorithm="swamping",
            topology="kout",
            n=12,
            seed=4,
            delivery=delivery,
            topology_params={"k": 2},
        )
        report = diff_reduction(script)
        assert report is not None
        assert report.equal, report.describe()
        assert report.label_b == "lockstep"

    def test_reduction_respects_fault_schedule(self):
        report = diff_reduction(HOSTILE)
        assert report is not None
        assert report.equal, report.describe()

    def test_lockstep_script_has_nothing_to_reduce(self):
        assert diff_reduction(CLEAN) is None


class TestEngineDigest:
    def test_digest_captures_full_ledger(self):
        engine = CLEAN.build_engine()
        for _ in range(3):
            engine.step()
        digest = engine_digest(engine)
        assert digest.round_no == 3
        assert digest.messages > 0
        assert digest.in_flight == engine.delivery.in_flight()
        assert len(digest.knowledge) == 64  # sha256 hex

    def test_equal_engines_digest_equal(self):
        engine_a = CLEAN.build_engine(backend="fast")
        engine_b = CLEAN.build_engine(backend="legacy")
        for _ in range(3):
            assert engine_digest(engine_a) == engine_digest(engine_b)
            engine_a.step()
            engine_b.step()
