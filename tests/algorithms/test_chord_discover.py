"""Behavioral tests for the Chord-style finger-table baseline."""

from __future__ import annotations

import pytest

import repro
from repro.algorithms.chord_discover import ChordDiscoverNode
from repro.graphs import make_topology
from repro.graphs.idspace import RING_MODULUS


class PoisonedRandom:
    """Fails the test the moment any RNG method is touched."""

    def __getattr__(self, name):  # pragma: no cover - reaching here IS the bug
        raise AssertionError(f"chord_discover consulted the RNG ({name})")


def make_node(node_id: int, known) -> ChordDiscoverNode:
    """A node bound to a plain-set row that the test writes as its host."""
    node = ChordDiscoverNode(node_id)
    node.bind({node_id, *known}, PoisonedRandom())
    return node


class TestCompletion:
    @pytest.mark.parametrize("topo", ("path", "kout", "star_in", "tree", "cycle"))
    def test_completes_everywhere(self, topo: str):
        graph = make_topology(topo, 64, seed=5)
        result = repro.discover(graph, algorithm="chord_discover", seed=5)
        assert result.completed

    def test_seed_independent_trace(self):
        graph = make_topology("kout", 48, seed=3)
        first = repro.discover(graph, algorithm="chord_discover", seed=0)
        second = repro.discover(graph, algorithm="chord_discover", seed=991)
        assert first.rounds == second.rounds
        assert first.messages == second.messages
        assert first.pointers == second.pointers


class TestFingerTable:
    def test_small_ring_fingers(self):
        # Node 0 knowing {10, 100, 1000}: targets 1,2,4,8 -> 10;
        # 16..64 -> 100; 128..512 -> 1000; >= 1024 wrap to 10.
        node = make_node(0, {10, 100, 1000})
        assert node.finger_table() == (10, 100, 1000)

    def test_wraparound_past_zero(self):
        top = RING_MODULUS - 2
        node = make_node(top, {top, 5})
        # Every target from top+1 wraps clockwise past 0 onto 5.
        assert node.finger_table() == (5,)

    def test_empty_ring_has_no_fingers(self):
        assert make_node(7, set()).finger_table() == ()

    def test_cache_invalidated_through_learn(self):
        node = make_node(0, {1 << 20})
        assert node.finger_table() == (1 << 20,)
        node.known.update({1 << 4, 1 << 40})
        # A closer machine per band must displace the old sole finger.
        assert node.finger_table() == (1 << 4, 1 << 20, 1 << 40)


class TestLinkMaintenance:
    def test_greets_first_time_fingers_with_snapshot(self):
        node = make_node(0, {8, 64})
        outbox = node.run_round(1, [])
        assert {m.recipient for m in outbox} == {8, 64}
        assert all(m.kind == "chord" and set(m.ids) == {8, 64} for m in outbox)

    def test_quiescent_when_nothing_new(self):
        node = make_node(0, {8, 64})
        node.run_round(1, [])
        assert node.run_round(2, []) == []

    def test_displaced_fingers_keep_receiving_deltas(self):
        node = make_node(0, {1 << 20})
        node.run_round(1, [])  # greet the sole finger
        node.known.update({1 << 4})  # displaces 1<<20 for the low bands
        outbox = node.run_round(2, [])
        by_recipient = {m.recipient: m for m in outbox}
        # The new finger is greeted with the full snapshot; the displaced
        # one is a link forever and still receives the delta.
        assert set(by_recipient) == {1 << 4, 1 << 20}
        assert set(by_recipient[1 << 4].ids) == {1 << 4, 1 << 20}
        assert set(by_recipient[1 << 20].ids) == {1 << 4}

    def test_fresh_finger_receives_exactly_one_message(self):
        node = make_node(0, {1 << 20})
        node.run_round(1, [])
        node.known.update({1 << 30})
        outbox = node.run_round(2, [])
        # 1<<30 becomes a finger the round it is learned: it must get the
        # greeting snapshot and nothing else — no redundant delta echoing
        # its own id back at it.
        recipients = [m.recipient for m in outbox]
        assert recipients.count(1 << 30) == 1
        assert recipients.count(1 << 20) == 1  # the delta push
