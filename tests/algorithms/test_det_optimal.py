"""Behavioral tests for the deterministic message-optimal baseline."""

from __future__ import annotations

import pytest

import repro
from repro.algorithms.det_optimal import DetOptimalNode
from repro.graphs import make_topology
from repro.sim.messages import Message


class PoisonedRandom:
    """Fails the test the moment any RNG method is touched."""

    def __getattr__(self, name):  # pragma: no cover - reaching here IS the bug
        raise AssertionError(f"det_optimal consulted the RNG ({name})")


def make_node(node_id: int, known) -> DetOptimalNode:
    """A node bound to a plain-set row that the test writes as its host."""
    node = DetOptimalNode(node_id)
    node.bind({node_id, *known}, PoisonedRandom())
    return node


def deliver(node: DetOptimalNode, message: Message):
    """End-of-round acceptance as the host does it: absorb, then learn
    the sender and ids; the node acts on the message next round."""
    node.absorb(message)
    node.known.update(message.ids)
    node.known.add(message.sender)
    return message


class TestCompletion:
    @pytest.mark.parametrize("topo", ("path", "kout", "star_in", "tree", "cycle"))
    def test_completes_everywhere(self, topo: str):
        graph = make_topology(topo, 64, seed=5)
        result = repro.discover(graph, algorithm="det_optimal", seed=5)
        assert result.completed

    def test_seed_independent_trace(self):
        # No coin flips anywhere: the engine seed must be irrelevant to
        # the entire execution, not just the final digest.
        graph = make_topology("kout", 48, seed=3)
        first = repro.discover(graph, algorithm="det_optimal", seed=0)
        second = repro.discover(graph, algorithm="det_optimal", seed=991)
        assert first.rounds == second.rounds
        assert first.messages == second.messages
        assert first.pointers == second.pointers
        assert first.messages_by_kind == second.messages_by_kind


class TestMemberBehavior:
    def test_reports_pending_then_goes_silent(self):
        node = make_node(5, {2, 5, 7})
        (report,) = node.run_round(1, [])
        assert report.kind == "report"
        assert report.recipient == 2
        assert set(report.ids) == {7}
        assert node.run_round(2, []) == []

    def test_root_change_resets_and_reannounces(self):
        node = make_node(5, {2, 5, 7})
        node.run_round(1, [])
        node.known.update({1})  # a smaller root appears
        (report,) = node.run_round(2, [])
        assert report.recipient == 1
        # Everything must be re-reported to the new root, old root included.
        assert set(report.ids) == {2, 7}

    def test_publish_from_current_root_suppresses_echo(self):
        node = make_node(5, {2, 5})
        node.run_round(1, [])  # announce to root 2
        wave = deliver(node, Message("publish", sender=2, recipient=5, ids=(7, 8)))
        # 7 and 8 arrived *from* the root: nothing to report back.
        assert node.run_round(2, [wave]) == []

    def test_stale_root_is_redirected_exactly_once(self):
        node = make_node(5, {2, 5})
        node.run_round(1, [])
        solicit = deliver(node, Message("publish", sender=9, recipient=5, ids=()))
        outbox = node.run_round(2, [solicit])
        redirects = [m for m in outbox if m.recipient == 9]
        assert len(redirects) == 1
        assert redirects[0].kind == "report"
        assert set(redirects[0].ids) == {2}
        again = deliver(node, Message("publish", sender=9, recipient=5, ids=()))
        assert [m for m in node.run_round(3, [again]) if m.recipient == 9] == []

    def test_member_role_is_permanent(self):
        # Once min(known) < self, no later round may behave root-like.
        node = make_node(5, {3, 5})
        for round_no in range(1, 6):
            node.known.update({10 + round_no})  # keep knowledge growing
            for message in node.run_round(round_no, []):
                assert message.kind == "report"
                assert message.recipient == 3


class TestRootBehavior:
    def test_solicits_with_empty_publish_then_waves_on_stability(self):
        node = make_node(1, {1, 3, 4})
        first = node.run_round(1, [])
        # Knowledge grew since bind (size 0 -> 3): solicits only, no wave.
        assert {(m.recipient, m.kind) for m in first} == {(3, "publish"), (4, "publish")}
        assert all(not m.ids for m in first)
        second = node.run_round(2, [])
        # Stable now: one full-snapshot wave to every known machine.
        assert {m.recipient for m in second} == {3, 4}
        assert all(set(m.ids) == {3, 4} for m in second)
        assert node.run_round(3, []) == []  # quiescent

    def test_first_wave_carries_full_snapshot_later_waves_delta_only(self):
        node = make_node(1, {1, 3, 4})
        node.run_round(1, [])
        node.run_round(2, [])  # first wave to 3 and 4
        report = deliver(node, Message("report", sender=6, recipient=1, ids=()))
        node.run_round(3, [report])  # announcer recorded; growth gates the wave
        wave = {m.recipient: m for m in node.run_round(4, [])}
        # 6 was learned after the first wave, so its first wave is the
        # full snapshot; the veterans get only the delta (6 itself).
        assert set(wave) == {3, 4, 6}
        assert set(wave[6].ids) == {3, 4, 6}
        assert set(wave[3].ids) == set(wave[4].ids) == {6}
        node.known.update({8})
        node.run_round(5, [])  # growth round: 8 gets solicited, wave gated
        wave = {m.recipient: m for m in node.run_round(6, [])}
        assert set(wave) == {3, 4, 6, 8}
        assert set(wave[8].ids) == {3, 4, 6, 8}  # 8's own first wave
        assert set(wave[3].ids) == set(wave[4].ids) == set(wave[6].ids) == {8}

    def test_announcers_are_never_solicited(self):
        node = make_node(1, {1})
        report = deliver(node, Message("report", sender=6, recipient=1, ids=()))
        outbox = node.run_round(2, [report])
        assert [m for m in outbox if not m.ids and m.recipient == 6] == []
