"""Unit tests for fault injection."""

from __future__ import annotations

import pytest

from repro.sim.faults import FaultInjector, FaultPlan, crash_fraction_plan


class TestFaultPlan:
    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(loss_rate=-0.1)

    def test_rejects_bad_crash_round(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rounds={1: 0})

    def test_has_faults_flag(self):
        assert not FaultPlan().has_faults
        assert FaultPlan(loss_rate=0.1).has_faults
        assert FaultPlan(crash_rounds={3: 2}).has_faults


class TestFaultInjector:
    def test_no_plan_never_drops(self):
        injector = FaultInjector(None, master_seed=1)
        assert all(injector.send_drop_reason(1, 2) is None for _ in range(100))

    def test_full_loss_always_drops(self):
        injector = FaultInjector(FaultPlan(loss_rate=1.0), master_seed=1)
        assert all(injector.send_drop_reason(1, 2) is not None for _ in range(20))

    def test_loss_rate_is_roughly_respected(self):
        injector = FaultInjector(FaultPlan(loss_rate=0.3), master_seed=5)
        drops = sum(injector.send_drop_reason(1, 2) is not None for _ in range(5000))
        assert 0.25 < drops / 5000 < 0.35

    def test_loss_is_deterministic_in_seed(self):
        def pattern(seed: int) -> list:
            injector = FaultInjector(FaultPlan(loss_rate=0.5), master_seed=seed)
            return [injector.send_drop_reason(1, 2) is not None for _ in range(50)]

        assert pattern(3) == pattern(3)
        assert pattern(3) != pattern(4)

    def test_crashes_apply_at_scheduled_round(self):
        plan = FaultPlan(crash_rounds={7: 3, 8: 5})
        injector = FaultInjector(plan, master_seed=0)
        assert injector.apply_crashes(1) == []
        assert injector.apply_crashes(3) == [7]
        assert injector.is_crashed(7)
        assert not injector.is_crashed(8)
        assert injector.apply_crashes(5) == [8]
        assert injector.crashed_nodes == frozenset({7, 8})

    def test_crash_is_idempotent(self):
        plan = FaultPlan(crash_rounds={7: 3})
        injector = FaultInjector(plan, master_seed=0)
        injector.apply_crashes(3)
        assert injector.apply_crashes(3) == []

    def test_messages_to_crashed_nodes_always_drop(self):
        plan = FaultPlan(crash_rounds={9: 1})
        injector = FaultInjector(plan, master_seed=0)
        injector.apply_crashes(1)
        assert all(injector.send_drop_reason(1, 9) is not None for _ in range(10))
        assert injector.send_drop_reason(1, 2) is None


class TestCrashFractionPlan:
    def test_crashes_requested_fraction(self):
        plan = crash_fraction_plan(range(100), 0.2, crash_round=4, seed=1)
        assert len(plan.crash_rounds) == 20
        assert all(round_no == 4 for round_no in plan.crash_rounds.values())

    def test_protected_nodes_never_crash(self):
        plan = crash_fraction_plan(range(50), 0.5, 2, seed=3, protect=[0, 1, 2])
        assert not {0, 1, 2} & set(plan.crash_rounds)

    def test_deterministic_in_seed(self):
        a = crash_fraction_plan(range(40), 0.25, 3, seed=9)
        b = crash_fraction_plan(range(40), 0.25, 3, seed=9)
        assert a.crash_rounds == b.crash_rounds

    def test_zero_fraction_crashes_nobody(self):
        plan = crash_fraction_plan(range(10), 0.0, 1, seed=0)
        assert not plan.crash_rounds

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            crash_fraction_plan(range(10), 1.1, 1, seed=0)
