"""Tests for the invariant oracle and the replayable schedule script."""

from __future__ import annotations

import json

from typing import Sequence

import pytest

from repro.graphs import make_topology
from repro.oracle import InvariantOracle, OracleViolation, ScheduleScript
from repro.oracle.fuzzer import run_script
from repro.oracle.script import SCRIPT_SCHEMA
from repro.sim import Message, ProtocolNode, SynchronousEngine


class TestScheduleScript:
    HOSTILE = ScheduleScript(
        algorithm="namedropper",
        topology="kout",
        n=14,
        seed=11,
        goal="strong_alive",
        delivery="jitter:2",
        loss_rate=0.1,
        fault_seed=3,
        crash_rounds={2: 4},
        join_rounds={5: 3},
        topology_params={"k": 2},
    )

    def test_json_round_trip(self):
        payload = json.loads(self.HOSTILE.to_json())
        assert payload["schema"] == SCRIPT_SCHEMA
        restored = ScheduleScript.from_dict(payload)
        assert restored == self.HOSTILE
        # Crash/join keys survive the str-keyed JSON encoding as ints.
        assert restored.crash_rounds == {2: 4}
        assert restored.join_rounds == {5: 3}

    def test_unknown_schema_rejected(self):
        payload = self.HOSTILE.to_dict()
        payload["schema"] = 999
        with pytest.raises(ValueError):
            ScheduleScript.from_dict(payload)

    def test_plain_script_has_no_schedule(self):
        plain = ScheduleScript(algorithm="flooding", topology="path", n=6, seed=0)
        assert not plain.has_schedule
        assert plain.fault_plan() is None
        assert plain.join_plan() is None
        assert self.HOSTILE.has_schedule

    def test_round_cap_falls_back_to_registry(self):
        plain = ScheduleScript(algorithm="flooding", topology="path", n=6, seed=0)
        assert plain.resolved_max_rounds() > 0
        capped = ScheduleScript(
            algorithm="flooding", topology="path", n=6, seed=0, max_rounds=9
        )
        assert capped.resolved_max_rounds() == 9

    def test_describe_names_the_schedule(self):
        text = self.HOSTILE.describe()
        assert "namedropper/kout" in text
        assert "delivery=jitter:2" in text
        assert "crashes=1" in text
        assert "joins=1" in text

    def test_identical_scripts_build_identical_engines(self):
        first = self.HOSTILE.build_engine()
        second = self.HOSTILE.build_engine()
        assert first.knowledge == second.knowledge

    def test_delivery_override(self):
        engine = self.HOSTILE.build_engine(delivery="lockstep")
        assert engine.delivery.uniform_delay == 1


class TestInvariantOracleCleanRuns:
    def test_clean_run_fast_path(self):
        script = ScheduleScript(
            algorithm="sublog", topology="kout", n=16, seed=5,
            topology_params={"k": 3},
        )
        result, oracle = run_script(script, backend="fast")
        assert result.completed
        assert not oracle.violations
        assert oracle.rounds_checked == result.rounds
        assert result.extra["oracle"]["violations"] == []

    def test_clean_run_legacy_path(self):
        script = ScheduleScript(
            algorithm="swamping", topology="path", n=17, seed=5
        )
        result, oracle = run_script(script, backend="legacy")
        assert result.completed
        assert not oracle.violations

    def test_clean_hostile_run(self):
        script = TestScheduleScript.HOSTILE
        result, oracle = run_script(script)
        assert not oracle.violations
        assert oracle.rounds_checked == result.rounds

    def test_clean_weak_goal_run(self):
        script = ScheduleScript(
            algorithm="flooding", topology="star_in", n=12, seed=2, goal="weak"
        )
        result, oracle = run_script(script)
        assert result.completed
        assert not oracle.violations


class TestInvariantOracleDetection:
    def _engine_with_oracle(self, strict=True):
        script = ScheduleScript(algorithm="flooding", topology="path", n=6, seed=3)
        oracle = InvariantOracle(script=script, strict=strict)
        # Legacy path: ``engine.knowledge`` is the authoritative store, so
        # direct pokes simulate a corrupted simulator state.
        engine = script.build_engine(backend="legacy", observers=[oracle])
        return engine, oracle

    def test_monotonicity_violation_detected(self):
        # A silent protocol sends nothing, so a discarded id can never be
        # legitimately re-delivered before the next round-end check.
        class Silent(ProtocolNode):
            def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
                pass

        oracle = InvariantOracle(strict=True)
        engine = SynchronousEngine(
            make_topology("path", 6).adjacency(),
            Silent,
            observers=[oracle],
            fast_path=False,
        )
        engine.step()
        engine.knowledge[0].discard(1)
        with pytest.raises(OracleViolation) as excinfo:
            engine.step()
        assert excinfo.value.invariant == "monotonicity"
        assert excinfo.value.node == 0
        assert excinfo.value.script is None

    def test_derivability_violation_detected(self):
        engine, _ = self._engine_with_oracle()
        engine.step()
        engine.knowledge[0].add(4)  # teleported: no delivery carried it
        with pytest.raises(OracleViolation) as excinfo:
            engine.step()
        assert excinfo.value.invariant == "derivability"
        assert excinfo.value.node == 0

    def test_violation_carries_replay_script(self):
        engine, _ = self._engine_with_oracle()
        engine.step()
        engine.knowledge[0].add(4)
        with pytest.raises(OracleViolation) as excinfo:
            engine.step()
        violation = excinfo.value
        assert violation.script is not None
        assert "replay:" in str(violation)
        # The embedded JSON is itself a loadable script.
        payload = str(violation).split("replay: ", 1)[1]
        assert ScheduleScript.from_dict(json.loads(payload)) == violation.script

    def test_non_strict_mode_accumulates(self):
        engine, oracle = self._engine_with_oracle(strict=False)
        engine.step()
        engine.knowledge[0].add(4)
        engine.step()  # must not raise
        assert oracle.violations
        assert oracle.violations[0].invariant == "derivability"
        assert any(
            "derivability" in text
            for text in oracle.extra()["oracle"]["violations"]
        )
