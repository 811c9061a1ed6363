"""Unit tests for the invariant observers."""

from __future__ import annotations

from typing import Sequence

import pytest

import repro
from repro.analysis.invariants import (
    BallContainmentObserver,
    InvariantViolation,
    closure_deficit,
    is_knowledge_closed,
    weak_closure_witnesses,
)
from repro.graphs import make_topology
from repro.sim import Message, ProtocolNode, SynchronousEngine


class TestClosurePredicates:
    """The closure functions on hand-built knowledge states, no engine."""

    CLOSED = {0: {0, 1, 2}, 1: {0, 1, 2}, 2: {0, 1, 2}}
    # Path knowledge 0 → 1 → 2: nobody knows everyone.
    OPEN = {0: {0, 1}, 1: {1, 2}, 2: {2}}
    # Everything known except that 2 never learned 0.
    ONE_SHORT = {0: {0, 1, 2}, 1: {0, 1, 2}, 2: {1, 2}}

    def test_closed_state_has_empty_deficit(self):
        assert closure_deficit(self.CLOSED) == []
        assert is_knowledge_closed(self.CLOSED)

    def test_self_knowledge_not_required(self):
        # Same closed state but nobody lists themselves.
        knowledge = {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}
        assert is_knowledge_closed(knowledge)

    def test_open_state_lists_every_missing_pair(self):
        assert closure_deficit(self.OPEN) == [(0, 2), (1, 0), (2, 0), (2, 1)]
        assert not is_knowledge_closed(self.OPEN)

    def test_one_edge_short(self):
        assert closure_deficit(self.ONE_SHORT) == [(2, 0)]
        assert not is_knowledge_closed(self.ONE_SHORT)

    def test_alive_subset_restriction(self):
        # Node 0 crashed: restricted to survivors {1, 2}, ONE_SHORT closes.
        alive = (1, 2)
        assert is_knowledge_closed(self.ONE_SHORT, universe=alive, holders=alive)
        # But requiring survivors to know the full universe still fails.
        assert closure_deficit(self.ONE_SHORT, holders=alive) == [(2, 0)]

    def test_missing_holder_owes_everything(self):
        knowledge = {0: {0, 1}, 1: {0, 1}}
        assert closure_deficit(knowledge, universe=(0, 1, 2)) == [
            (0, 2),
            (1, 2),
            (2, 0),
            (2, 1),
        ]

    def test_weak_witnesses_on_star_knowledge(self):
        # Hub 0 knows everyone and everyone knows the hub; leaves know
        # only the hub — classic weak-but-not-strong discovery.
        star = {0: {0, 1, 2, 3}, 1: {0, 1}, 2: {0, 2}, 3: {0, 3}}
        assert weak_closure_witnesses(star) == [0]
        assert not is_knowledge_closed(star)

    def test_weak_witness_needs_both_directions(self):
        # Node 0 knows everyone but node 2 never heard of it: no witness.
        one_way = {0: {0, 1, 2}, 1: {0, 1}, 2: {2}}
        assert weak_closure_witnesses(one_way) == []
        # Known-by-everyone without knowing everyone fails too.
        famous = {0: {0, 1}, 1: {0, 1, 2}, 2: {0, 2}}
        assert weak_closure_witnesses(famous) == []

    def test_closed_state_makes_every_node_a_witness(self):
        assert weak_closure_witnesses(self.CLOSED) == [0, 1, 2]

    def test_singleton_is_trivially_closed(self):
        assert is_knowledge_closed({7: set()})
        assert weak_closure_witnesses({7: set()}) == [7]


class TestBallContainment:
    @pytest.mark.parametrize("algorithm", ("swamping", "namedropper", "sublog", "flooding"))
    def test_no_violations_for_shipped_algorithms(self, algorithm: str):
        graph = make_topology("path", 33)
        observer = BallContainmentObserver(graph, strict=True)
        result = repro.discover(
            graph, algorithm=algorithm, seed=2, observers=[observer]
        )
        assert result.completed
        assert not observer.violations

    def test_radius_trace_respects_ceiling(self):
        graph = make_topology("path", 65)
        observer = BallContainmentObserver(graph)
        repro.discover(graph, algorithm="swamping", seed=1, observers=[observer])
        for round_index, radius in enumerate(observer.max_radius_by_round):
            assert radius <= 2 ** (round_index + 1)

    def test_swamping_nearly_saturates_bound(self):
        # Swamping doubles radius per round: the trace must track 2^t
        # within a factor of 2 (it starts at radius 1 and can lag one
        # doubling because reverse edges appear a round late).
        graph = make_topology("bipath", 129)
        observer = BallContainmentObserver(graph)
        repro.discover(graph, algorithm="swamping", seed=1, observers=[observer])
        for round_index, radius in enumerate(observer.max_radius_by_round):
            assert radius >= 2**round_index / 2

    def test_mismatched_graph_rejected(self):
        observer = BallContainmentObserver(make_topology("path", 4))
        with pytest.raises(ValueError):
            SynchronousEngine(
                make_topology("path", 5).adjacency(),
                repro.get_algorithm("flooding").node_factory(),
                observers=[observer],
            )

    def test_cheating_would_be_detected(self):
        # A synthetic run that teleports knowledge: hand the last node's id
        # to the first node via a direct engine poke, and confirm the
        # checker notices the impossible radius.
        graph = make_topology("path", 17)
        observer = BallContainmentObserver(graph, strict=False)

        class Teleporter(ProtocolNode):
            def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
                pass

        engine = SynchronousEngine(
            graph.adjacency(), Teleporter, observers=[observer], enforce_legality=False
        )
        engine.knowledge[0].add(16)  # impossible at round 1
        engine.step()
        assert observer.violations
        assert observer.violations[0]["node"] == 0

    def test_strict_mode_raises(self):
        graph = make_topology("path", 17)
        observer = BallContainmentObserver(graph, strict=True)

        class Teleporter(ProtocolNode):
            def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
                pass

        engine = SynchronousEngine(
            graph.adjacency(), Teleporter, observers=[observer], enforce_legality=False
        )
        engine.knowledge[0].add(16)
        with pytest.raises(InvariantViolation):
            engine.step()
