"""The out-of-band knowledge-injection seam, on every backend."""

from __future__ import annotations

from typing import Sequence

import pytest

from repro.sim import BACKENDS
from repro.sim.engine import SynchronousEngine
from repro.sim.errors import EngineStateError, UnknownNodeError
from repro.sim.faults import FaultPlan
from repro.sim.messages import Message
from repro.sim.node import ProtocolNode


class SilentNode(ProtocolNode):
    def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
        pass


class GossipNode(ProtocolNode):
    def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
        for peer in sorted(self.known - {self.node_id}):
            self.send(peer, "gossip", ids=self.known - {self.node_id, peer})


def line(n: int) -> dict:
    return {i: ({i + 1} if i + 1 < n else set()) for i in range(n)}


@pytest.mark.parametrize("backend", BACKENDS)
class TestInjectKnowledge:
    def test_injection_lands_in_knowledge_and_node(self, backend):
        engine = SynchronousEngine(line(6), SilentNode, backend=backend)
        assert engine.inject_knowledge(0, {3, 4})
        assert engine.knowledge[0] >= {3, 4}
        assert {3, 4} <= engine.nodes[0].known

    def test_injection_counts_match_across_backends(self, backend):
        engine = SynchronousEngine(line(6), SilentNode, backend=backend)
        engine.inject_knowledge(0, {2, 3})
        sizes = {node: len(ids) for node, ids in engine.knowledge.items()}
        # 0 knows self+1 initially, +2 injected; everyone else unchanged.
        assert sizes == {0: 4, 1: 2, 2: 2, 3: 2, 4: 2, 5: 1}

    def test_strays_and_self_are_ignored(self, backend):
        engine = SynchronousEngine(line(4), SilentNode, backend=backend)
        before = {node: set(ids) for node, ids in engine.knowledge.items()}
        assert engine.inject_knowledge(2, {2, 999})
        assert engine.knowledge == before

    def test_unknown_node_raises(self, backend):
        engine = SynchronousEngine(line(4), SilentNode, backend=backend)
        with pytest.raises(UnknownNodeError):
            engine.inject_knowledge(999, {0})

    def test_crashed_node_returns_false(self, backend):
        engine = SynchronousEngine(
            line(4),
            SilentNode,
            backend=backend,
            fault_plan=FaultPlan(crash_rounds={1: 1}),
        )
        engine.step()
        assert not engine.inject_knowledge(1, {3})
        assert 3 not in engine.knowledge[1]

    def test_finished_engine_rejects_injection(self, backend):
        engine = SynchronousEngine({0: {1}, 1: {0}}, GossipNode, backend=backend)
        engine.run(max_rounds=4)
        with pytest.raises(EngineStateError):
            engine.inject_knowledge(0, {1})

    def test_injection_can_complete_the_goal(self, backend):
        # A silent fleet never gossips; injection alone must reach closure.
        engine = SynchronousEngine(line(3), SilentNode, backend=backend)
        assert not engine.goal_reached()
        engine.inject_knowledge(0, {2})
        engine.inject_knowledge(1, {0})
        engine.inject_knowledge(2, {0, 1})
        assert engine.goal_reached()

    def test_injected_knowledge_spreads(self, backend):
        # 5 only reachable through injection; gossip then spreads it.
        graph = {0: {1}, 1: {0}, 2: {0, 1}, 3: {0}, 4: {0}, 5: set()}
        engine = SynchronousEngine(graph, GossipNode, backend=backend)
        engine.inject_knowledge(0, {5})
        result = engine.run(max_rounds=16)
        assert result.completed


def test_digests_identical_across_backends_after_injection():
    digests = set()
    for backend in BACKENDS:
        engine = SynchronousEngine(line(8), GossipNode, backend=backend, seed=3)
        engine.inject_knowledge(0, {5, 6})
        engine.step()
        engine.inject_knowledge(3, {7})
        engine.run(max_rounds=12)
        digests.add(engine.knowledge_digest())
    assert len(digests) == 1
