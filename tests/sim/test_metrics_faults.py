"""Tests for fault-adjacent metric accounting (in-flight losses)."""

from __future__ import annotations

from repro.sim.messages import Message
from repro.sim.metrics import MetricsCollector


class TestInFlightLoss:
    def test_in_flight_loss_moves_drop_counters_only(self):
        collector = MetricsCollector()
        collector.record_send(Message(kind="x", sender=1, recipient=2, ids=(3,)))
        collector.record_in_flight_loss()
        assert collector.total_messages == 1
        assert collector.total_pointers == 1
        assert collector.total_dropped == 1

    def test_round_stats_include_in_flight_losses(self):
        collector = MetricsCollector()
        collector.record_send(Message(kind="x", sender=1, recipient=2))
        collector.record_in_flight_loss()
        stats = collector.close_round(1)
        assert stats.dropped_messages == 1


class TestDropReasons:
    def test_in_flight_loss_defaults_to_crash(self):
        from repro.sim.metrics import DROP_CRASH

        collector = MetricsCollector()
        collector.record_in_flight_loss()
        assert collector.dropped_by_reason == {DROP_CRASH: 1}

    def test_reasons_accumulate_independently(self):
        from repro.sim.metrics import DROP_CRASH, DROP_DORMANT, DROP_PARTITION

        collector = MetricsCollector()
        collector.record_in_flight_loss(DROP_CRASH)
        collector.record_in_flight_loss(DROP_DORMANT)
        collector.record_in_flight_loss(DROP_DORMANT)
        collector.record_in_flight_loss(DROP_PARTITION)
        assert collector.dropped_by_reason == {
            DROP_CRASH: 1,
            DROP_DORMANT: 2,
            DROP_PARTITION: 1,
        }
        assert collector.total_dropped == 4

    def test_send_time_drops_tagged_as_fault(self):
        from repro.sim.metrics import DROP_FAULT

        collector = MetricsCollector()
        collector.record_send(
            Message(kind="x", sender=1, recipient=2), dropped=True
        )
        collector.record_batch({"x": 3}, {"x": 0}, dropped=2)
        assert collector.dropped_by_reason == {DROP_FAULT: 3}

    def test_total_dropped_is_derived_from_reasons(self):
        collector = MetricsCollector()
        assert collector.total_dropped == 0
        collector.record_in_flight_loss("crash")
        collector.record_send(
            Message(kind="x", sender=1, recipient=2), dropped=True
        )
        assert collector.total_dropped == sum(
            collector.dropped_by_reason.values()
        ) == 2

    def test_delay_histogram_accumulates(self):
        collector = MetricsCollector()
        collector.record_delay(1)
        collector.record_delay(1, count=4)
        collector.record_delay(3, count=2)
        assert collector.delivery_delays == {1: 5, 3: 2}

    def test_engine_splits_crash_and_dormant_reasons(self):
        from typing import Sequence

        from repro.sim import (
            FaultPlan,
            JoinPlan,
            ProtocolNode,
            SynchronousEngine,
        )

        class Pusher(ProtocolNode):
            def on_round(self, round_no, inbox: Sequence, rng):
                for peer in sorted(self.known - {self.node_id}):
                    self.send(peer, "ping")

        # Every message is held 3 rounds (adversarial:2), so node 0's
        # early pings are still in flight when node 1 crashes at round 3
        # (in-flight crash loss) and when they reach node 3, which stays
        # dormant until round 6 (dormant loss).  Lockstep would catch the
        # crashed recipient at send time instead, tagged "fault".
        engine = SynchronousEngine(
            {0: {1, 3}, 1: {0}, 3: {0}},
            Pusher,
            delivery="adversarial:2",
            fault_plan=FaultPlan(crash_rounds={1: 3}),
            join_plan=JoinPlan(join_rounds={3: 6}),
        )
        for _ in range(5):
            engine.step()
        reasons = engine.metrics.dropped_by_reason
        assert reasons.get("crash", 0) > 0
        assert reasons.get("dormant", 0) > 0
        result = engine.run(max_rounds=8)
        assert result.dropped_by_reason == dict(engine.metrics.dropped_by_reason)
        assert result.dropped_messages == sum(result.dropped_by_reason.values())


class TestSendTimeCrashAttribution:
    """A send to an already-crashed recipient is the same physical loss
    as an in-flight crash and must carry the same ``crash`` tag — not
    ``fault``, which is reserved for the loss coin."""

    def _pusher(self):
        from typing import Sequence

        from repro.sim import ProtocolNode

        class Pusher(ProtocolNode):
            def on_round(self, round_no, inbox: Sequence, rng):
                for peer in sorted(self.known - {self.node_id}):
                    self.send(peer, "ping")

        return Pusher

    def _run(self, fast_path: bool, loss_rate: float = 0.0):
        from repro.sim import FaultPlan, SynchronousEngine

        engine = SynchronousEngine(
            {0: {1}, 1: {0}, 2: {1}},
            self._pusher(),
            fault_plan=FaultPlan(loss_rate=loss_rate, crash_rounds={1: 2}, seed=3),
            fast_path=fast_path,
        )
        for _ in range(4):
            engine.step()
        return engine

    def test_send_to_crashed_recipient_tagged_crash(self):
        for fast_path in (False, True):
            engine = self._run(fast_path)
            reasons = dict(engine.metrics.dropped_by_reason)
            # Node 1 crashes at round 2; every later send targeting it is
            # caught at send time.  No loss coin runs, so no fault drops.
            assert reasons.get("crash", 0) > 0, fast_path
            assert "fault" not in reasons, fast_path

    def test_loss_coin_stream_survives_the_split(self):
        # With a loss rate active, the coin is consumed for crash-bound
        # sends too; both engine paths must agree on the whole split.
        legacy = self._run(False, loss_rate=0.4)
        fast = self._run(True, loss_rate=0.4)
        assert dict(legacy.metrics.dropped_by_reason) == dict(
            fast.metrics.dropped_by_reason
        )
        assert legacy.metrics.total_messages == fast.metrics.total_messages

    def test_injector_send_drop_reason_split(self):
        from repro.sim.faults import FaultInjector, FaultPlan
        from repro.sim.metrics import DROP_CRASH, DROP_FAULT

        injector = FaultInjector(FaultPlan(loss_rate=1.0, crash_rounds={9: 1}), 0)
        injector.apply_crashes(1)
        assert injector.send_drop_reason(1, 9) == DROP_CRASH
        assert injector.send_drop_reason(1, 2) == DROP_FAULT
        clean = FaultInjector(FaultPlan(), 0)
        assert clean.send_drop_reason(1, 2) is None


class TestEngineInFlightLoss:
    def test_message_to_node_crashing_on_delivery_round_is_lost(self):
        from typing import Sequence

        from repro.sim import FaultPlan, ProtocolNode, SynchronousEngine

        class Pusher(ProtocolNode):
            def on_round(self, round_no, inbox: Sequence, rng):
                for peer in sorted(self.known - {self.node_id}):
                    self.send(peer, "ping")

        # Node 1 crashes at round 2 — exactly when round-1 messages are
        # consumed; delivery already happened at the end of round 1, so
        # ground truth learned, but from round 2 on everything to node 1
        # is dropped.
        engine = SynchronousEngine(
            {0: {1}, 1: {0}, 2: {1}},
            Pusher,
            fault_plan=FaultPlan(crash_rounds={1: 2}),
        )
        engine.step()
        engine.step()
        engine.step()
        assert engine.metrics.total_dropped > 0

    def test_jitter_delivery_to_crashed_node_counts_in_flight(self):
        from typing import Sequence

        from repro.sim import FaultPlan, ProtocolNode, SynchronousEngine

        class Pusher(ProtocolNode):
            def on_round(self, round_no, inbox: Sequence, rng):
                if round_no == 1:
                    for peer in sorted(self.known - {self.node_id}):
                        self.send(peer, "ping")

        # With jitter up to 3, some round-1 messages arrive at rounds 3-4;
        # node 1 crashes at round 3, so late arrivals are in-flight losses.
        engine = SynchronousEngine(
            {0: {1}, 1: set(), 2: {1}},
            Pusher,
            seed=5,
            delivery="jitter:3",
            fault_plan=FaultPlan(crash_rounds={1: 3}),
        )
        for _ in range(6):
            engine.step()
        # All sends targeted node 1; whatever was not consumed by round 2
        # was dropped in flight.
        assert engine.metrics.total_messages == 2
