"""Unit tests for complexity accounting."""

from __future__ import annotations

from repro.sim.messages import Message
from repro.sim.metrics import DROP_FAULT, MetricsCollector, RunResult


def _msg(kind: str = "x", ids: tuple = ()) -> Message:
    return Message(kind=kind, sender=1, recipient=2, ids=ids)


class TestMetricsCollector:
    def test_totals_accumulate(self):
        collector = MetricsCollector()
        collector.record_send(_msg(ids=(1, 2)))
        collector.record_send(_msg(ids=(3,)))
        assert collector.total_messages == 2
        assert collector.total_pointers == 3

    def test_dropped_messages_still_charged(self):
        collector = MetricsCollector()
        collector.record_send(_msg(ids=(1,)), dropped=True)
        assert collector.total_messages == 1
        assert collector.total_pointers == 1
        assert collector.total_dropped == 1

    def test_per_kind_breakdown(self):
        collector = MetricsCollector()
        collector.record_send(_msg(kind="a", ids=(1,)))
        collector.record_send(_msg(kind="a"))
        collector.record_send(_msg(kind="b", ids=(1, 2)))
        assert collector.messages_by_kind == {"a": 2, "b": 1}
        assert collector.pointers_by_kind == {"a": 1, "b": 2}

    def test_close_round_resets_round_counters(self):
        collector = MetricsCollector()
        collector.record_send(_msg(ids=(1,)))
        first = collector.close_round(1)
        assert first.messages == 1
        assert first.pointers == 1
        second = collector.close_round(2)
        assert second.messages == 0
        assert collector.total_messages == 1

    def test_round_stats_record_drops(self):
        collector = MetricsCollector()
        collector.record_send(_msg(), dropped=True)
        collector.record_send(_msg())
        stats = collector.close_round(1)
        assert stats.dropped_messages == 1
        assert stats.delivered_messages == 1

    def test_delivered_messages_clamps_under_delayed_delivery(self):
        # Under non-lockstep delivery an in-flight loss is charged to the
        # delivery round while its send was counted rounds earlier, so a
        # quiet round can see more drops than sends.  The per-round view
        # clamps at zero; totals reconcile at the run level.
        from repro.sim.metrics import RoundStats

        assert RoundStats(5, 0, 0, 3).delivered_messages == 0
        assert RoundStats(5, 2, 0, 3).delivered_messages == 0
        assert RoundStats(5, 4, 0, 3).delivered_messages == 1

        collector = MetricsCollector()
        collector.record_send(_msg())  # round 1: one send, delivered later
        first = collector.close_round(1)
        collector.record_in_flight_loss()  # round 2: the loss lands here
        second = collector.close_round(2)
        assert first.delivered_messages == 1
        assert second.delivered_messages == 0  # raw difference would be -1
        assert collector.total_messages - collector.total_dropped == 0

    def test_engine_round_stats_never_negative_under_adversarial_delivery(self):
        from typing import Sequence

        from repro.sim import FaultPlan, ProtocolNode, SynchronousEngine

        class Pusher(ProtocolNode):
            def on_round(self, round_no, inbox: Sequence, rng):
                if round_no <= 2:
                    for peer in sorted(self.known - {self.node_id}):
                        self.send(peer, "ping")

        # Sends stop after round 2, but adversarial:3 holds everything 4
        # rounds; node 1 crashes at round 4, so rounds with zero sends
        # absorb in-flight crash losses.
        engine = SynchronousEngine(
            {0: {1}, 1: {0}, 2: {1}},
            Pusher,
            delivery="adversarial:3",
            fault_plan=FaultPlan(crash_rounds={1: 4}),
        )
        for _ in range(7):
            engine.step()
        stats = engine.metrics.round_stats
        assert any(s.dropped_messages > s.messages for s in stats)
        assert all(s.delivered_messages >= 0 for s in stats)
        delivered_total = engine.metrics.total_messages - engine.metrics.total_dropped
        assert delivered_total >= 0


class TestRunResult:
    def _result(self, **overrides) -> RunResult:
        defaults = dict(
            algorithm="test",
            n=16,
            seed=0,
            completed=True,
            rounds=5,
            messages=100,
            pointers=400,
        )
        defaults.update(overrides)
        return RunResult(**defaults)

    def test_id_bits_is_ceil_log2(self):
        assert self._result(n=16).id_bits == 4
        assert self._result(n=17).id_bits == 5
        assert self._result(n=2).id_bits == 1

    def test_bits_include_headers(self):
        result = self._result(n=16, messages=10, pointers=40)
        assert result.bits == (40 + 4 * 10) * 4

    def test_messages_per_node(self):
        assert self._result(n=16, messages=160).messages_per_node == 10.0

    def test_summary_is_flat(self):
        summary = self._result().summary()
        assert summary["algorithm"] == "test"
        assert summary["rounds"] == 5
        assert "bits" in summary


class TestRecordBatch:
    def test_batch_matches_per_message_recording(self):
        batch = MetricsCollector()
        serial = MetricsCollector()
        sends = [
            _msg(kind="invite", ids=(1, 2, 3)),
            _msg(kind="invite", ids=()),
            _msg(kind="report", ids=(4,)),
        ]
        for message in sends:
            serial.record_send(message)
        batch.record_batch(
            {"invite": 2, "report": 1}, {"invite": 3, "report": 1}
        )
        assert batch.total_messages == serial.total_messages == 3
        assert batch.total_pointers == serial.total_pointers == 4
        assert batch.messages_by_kind == serial.messages_by_kind
        assert batch.pointers_by_kind == serial.pointers_by_kind
        assert batch.close_round(1) == serial.close_round(1)

    def test_batch_charges_drops(self):
        collector = MetricsCollector()
        collector.record_batch({"x": 5}, {"x": 10}, {DROP_FAULT: 2})
        stats = collector.close_round(1)
        assert stats.dropped_messages == 2
        assert stats.delivered_messages == 3
        assert collector.total_dropped == 2

    def test_zero_pointer_kind_still_materializes(self):
        collector = MetricsCollector()
        collector.record_batch({"ping": 1}, {"ping": 0})
        assert collector.pointers_by_kind["ping"] == 0
