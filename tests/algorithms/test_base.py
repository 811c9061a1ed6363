"""Unit tests for the DiscoveryNode helpers."""

from __future__ import annotations

import random
from typing import Sequence

from repro.algorithms.base import DiscoveryNode
from repro.sim.messages import Message


class PlainNode(DiscoveryNode):
    def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
        pass


def make_node(knows=(2, 3)) -> PlainNode:
    """Node 1, bound to a plain-set row that the test writes as its host."""
    node = PlainNode(1)
    node.bind({1, *knows}, random.Random(0))
    return node


class TestSnapshots:
    def test_snapshot_matches_known(self):
        node = make_node()
        assert node.knowledge_snapshot() == frozenset({1, 2, 3})
        assert node.knowledge_snapshot(include_self=False) == frozenset({2, 3})

    def test_snapshot_is_cached_until_change(self):
        node = make_node()
        first = node.knowledge_snapshot()
        assert node.knowledge_snapshot() is first
        node.known.add(9)  # the host learns a delivery's sender
        second = node.knowledge_snapshot()
        assert second is not first
        assert 9 in second

    def test_direct_learn_invalidates_snapshot(self):
        # Knowledge taught out of band, with no message and no hook, must
        # still retire the cached snapshot: the cache follows the row.
        node = make_node()
        first = node.knowledge_snapshot()
        node.known.add(7)
        second = node.knowledge_snapshot()
        assert second is not first
        assert 7 in second
        assert node.unsent_delta() == frozenset({2, 3, 7})

    def test_redundant_learn_keeps_cache(self):
        node = make_node()
        first = node.knowledge_snapshot()
        node.known.update((2, 3))
        assert node.knowledge_snapshot() is first


class TestDeltas:
    def test_initial_delta_is_initial_knowledge(self):
        node = make_node()
        assert node.unsent_delta() == frozenset({2, 3})

    def test_mark_sent_clears_delta(self):
        node = make_node()
        node.mark_sent()
        assert node.unsent_delta() == frozenset()

    def test_new_learning_reappears_in_delta(self):
        node = make_node()
        node.mark_sent()
        node.known.update((5, 6))
        assert node.unsent_delta() == frozenset({5, 6})

    def test_delta_never_contains_self(self):
        node = make_node()
        assert 1 not in node.unsent_delta()


class TestRandomPeer:
    def test_none_when_lonely(self):
        node = PlainNode(1)
        node.bind({1}, random.Random(0))
        assert node.pick_random_peer() is None

    def test_peer_is_known_and_not_self(self):
        node = make_node(knows=(2, 3, 4, 5))
        for _ in range(20):
            peer = node.pick_random_peer()
            assert peer in {2, 3, 4, 5}

    def test_deterministic_given_rng(self):
        a = make_node(knows=tuple(range(2, 30)))
        b = make_node(knows=tuple(range(2, 30)))
        assert [a.pick_random_peer() for _ in range(10)] == [
            b.pick_random_peer() for _ in range(10)
        ]

    def test_insertion_order_does_not_matter(self):
        # Same knowledge assembled in different orders must give the same
        # random choices (the picker sorts before sampling).
        a = PlainNode(1)
        a.bind({1, 2, 3, 4}, random.Random(7))
        b = PlainNode(1)
        b.bind({4, 3, 2, 1}, random.Random(7))
        assert [a.pick_random_peer() for _ in range(8)] == [
            b.pick_random_peer() for _ in range(8)
        ]

    def test_learning_between_picks_makes_new_id_pickable(self):
        # The sorted peer view is cached across picks; learning between
        # two picks must retire it so the new id can be drawn.
        node = make_node(knows=(2,))
        assert node.pick_random_peer() == 2
        node.known.add(9)
        assert node.sorted_peers() == [2, 9]
        assert 9 in {node.pick_random_peer() for _ in range(64)}

    def test_sorted_view_is_cached_until_change(self):
        node = make_node(knows=(5, 3, 4))
        view = node.sorted_peers()
        assert view == [3, 4, 5]
        node.pick_random_peer()
        assert node.sorted_peers() is view
        node.known.add(4)  # nothing new: the view survives
        assert node.sorted_peers() is view
