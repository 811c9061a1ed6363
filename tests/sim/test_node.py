"""Unit tests for the protocol-node base class."""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from repro.sim.messages import Message
from repro.sim.node import ProtocolNode


class EchoNode(ProtocolNode):
    """Minimal concrete node used for base-class tests."""

    def __init__(self, node_id: int):
        super().__init__(node_id)
        self.rounds_seen = []

    def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
        self.rounds_seen.append((round_no, len(inbox)))


class MergeNode(ProtocolNode):
    """Uses both queued sends and an explicit return in the same round."""

    def on_round(self, round_no: int, inbox: Sequence[Message], rng):
        self.send(2, "queued")
        return [self.message(3, "returned")]


class TestProtocolNode:
    def _bound(self, node_id: int = 1, knows=(2, 3)) -> EchoNode:
        node = EchoNode(node_id)
        node.bind({node_id, *knows}, random.Random(0))
        return node

    def test_bind_installs_initial_knowledge(self):
        node = self._bound()
        assert node.known == {1, 2, 3}

    def test_bind_takes_the_row_itself(self):
        # The host's row is the only copy: the node reads what the host
        # writes afterwards.
        row = {1, 2, 3}
        node = EchoNode(1)
        node.bind(row, random.Random(0))
        assert node.known is row
        row.add(9)
        assert 9 in node.known

    def test_bind_rejects_a_row_without_the_node(self):
        with pytest.raises(ValueError, match="itself"):
            EchoNode(1).bind({2, 3}, random.Random(0))

    def test_absorb_is_a_hook_that_learns_nothing(self):
        node = self._bound()
        node.absorb(Message(kind="x", sender=9, recipient=1, ids=(10, 11)))
        assert node.known == {1, 2, 3}

    def test_send_queues_and_drains(self):
        node = self._bound()
        node.send(2, "hello", ids=(3,))
        outbox = node.drain_outbox()
        assert len(outbox) == 1
        assert outbox[0].recipient == 2
        assert node.drain_outbox() == []

    def test_self_send_is_rejected(self):
        node = self._bound()
        with pytest.raises(ValueError):
            node.send(1, "loop")

    def test_run_round_invokes_handler(self):
        node = self._bound()
        node.run_round(1, [])
        node.run_round(2, [Message(kind="x", sender=2, recipient=1)])
        assert node.rounds_seen == [(1, 0), (2, 1)]

    def test_run_round_returns_queued_then_returned(self):
        # run_round is the pure boundary: everything the round produced —
        # queued via send() or returned from on_round — comes back in one
        # outbox (queued first), and nothing is left behind.
        node = MergeNode(1)
        node.bind({1, 2, 3}, random.Random(0))
        outbox = node.run_round(1, [])
        assert [m.kind for m in outbox] == ["queued", "returned"]
        assert [m.recipient for m in outbox] == [2, 3]
        assert node.drain_outbox() == []

    def test_others_known_excludes_self(self):
        node = self._bound()
        assert node.others_known == {2, 3}

    def test_halt_is_advisory(self):
        node = self._bound()
        node.halt()
        assert node.halted
        node.run_round(1, [])  # still runs
        assert node.rounds_seen
