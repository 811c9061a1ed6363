"""Id-set values: the immutable payloads the simulator builds over its
dense index, and how both stores check and learn them."""

from __future__ import annotations

import pytest

from repro.graphs import make_topology
from repro.sim.engine import SynchronousEngine
from repro.sim.errors import ProtocolViolation
from repro.sim.idset import IdSet, IdUniverse
from repro.sim.messages import Message
from repro.sim.node import ProtocolNode

#: Sparse, unsorted-looking ids: a value's bit i is the i-th smallest.
IDS = [7_000_003 * k + 11 for k in range(300)]


def universe() -> IdUniverse:
    return IdUniverse(sorted(IDS))


def value_of(*positions: int) -> IdSet:
    space = universe()
    return space.value([space.node_ids[p] for p in positions])


class TestValue:
    @pytest.mark.parametrize("count", [0, 1, 5, 32, 33, 200, 299, 300])
    def test_len_is_the_popcount(self, count):
        space = universe()
        value = space.value(space.node_ids[:count])
        assert len(value) == value.bits.bit_count() == count
        assert bool(value) == (count > 0)

    @pytest.mark.parametrize("count", [3, 32, 150, 300])
    def test_iterates_ids_ascending(self, count):
        space = universe()
        chosen = space.node_ids[::-1][:count]  # built from descending ids
        listed = list(space.value(chosen))
        assert listed == sorted(chosen)
        # The universe's own int objects, not copies.
        assert all(any(node is own for own in space.node_ids) for node in listed[:3])

    def test_minus_a_set_is_a_value(self):
        value = value_of(1, 2, 3)
        rest = value - {value.universe.node_ids[2], -5}
        assert type(rest) is IdSet
        assert rest == {value.universe.node_ids[1], value.universe.node_ids[3]}
        assert type(value - frozenset()) is IdSet
        assert type(value - [value.universe.node_ids[1]]) is IdSet

    def test_minus_a_value_is_a_value(self):
        space = universe()
        big = space.value(space.node_ids[:10])
        small = space.value(space.node_ids[:4])
        rest = big - small
        assert type(rest) is IdSet
        assert list(rest) == list(space.node_ids[4:10])

    def test_equals_the_frozenset_of_its_ids_either_way(self):
        value = value_of(0, 9, 299)
        ids = frozenset(value.universe.node_ids[p] for p in (0, 9, 299))
        assert value == ids
        assert ids == value
        assert value == set(ids)
        assert set(ids) == value
        assert value != ids - {min(ids)}
        assert ids - {min(ids)} != value
        assert hash(value) == hash(ids)

    def test_values_over_the_same_ids_compare_by_bits(self):
        first, second = universe(), universe()
        assert first.value(first.node_ids[:3]) == second.value(second.node_ids[:3])
        assert first.same_ids(second)
        assert not first.same_ids(IdUniverse(sorted(IDS)[:-1]))

    def test_membership_is_a_bit_test(self):
        value = value_of(4)
        assert value.universe.node_ids[4] in value
        assert value.universe.node_ids[5] not in value
        assert "nope" not in value

    def test_an_id_naming_no_machine_is_refused(self):
        with pytest.raises(KeyError):
            universe().value([IDS[0], 12])


class TestMessageKeepsValue:
    def test_the_value_is_kept_as_it_is(self):
        value = value_of(1, 2)
        message = Message(kind="x", sender=1, recipient=2, ids=value)
        assert message.ids is value
        assert message.pointer_count == 2


class _ValueSender(ProtocolNode):
    """Machine ids[0] sends ids[1] a value holding ids[1] and ids[32]."""

    def on_round(self, round_no, inbox, rng):
        ids = sorted(self.universe.node_ids)
        if round_no == 1 and self.node_id == ids[0]:
            self.send(ids[1], "x", ids=self.id_set([ids[1], ids[32]]))


def _ring(ids):
    return {node: {ids[i - 1], ids[(i + 1) % len(ids)]} for i, node in enumerate(ids)}


@pytest.mark.parametrize("backend", ["legacy", "fast"])
def test_a_value_with_an_unknown_id_raises_the_exact_violation(backend):
    ids = sorted(IDS[:128])
    engine = SynchronousEngine(_ring(ids), _ValueSender, seed=1, backend=backend)
    with pytest.raises(ProtocolViolation) as excinfo:
        engine.step()
    assert str(excinfo.value) == f"node {ids[0]}: 'x' message carries unknown id {ids[32]}"


class _Relay(ProtocolNode):
    """Round 1: every machine sends its whole row, as a value, to every
    machine it knows."""

    def on_round(self, round_no, inbox, rng):
        if round_no == 1:
            row = self.id_set(self.known)
            for peer in sorted(self.known - {self.node_id}):
                self.send(peer, "x", ids=row)


def _check_and_learn(engine, sent):
    for node in engine.node_ids:
        engine.store.check(node, [m for m in sent if m.sender == node])
    engine.store.learn(sent, engine.nodes)


def test_a_value_from_another_engine_over_the_same_ids_reads_as_bits(monkeypatch):
    # A schedule recorded on one engine and replayed on a fresh one
    # carries values over the recording's universe.
    graph = make_topology("kout", 64, seed=4, k=2)
    recording = SynchronousEngine(graph, _Relay, seed=1, backend="legacy")
    sent = [
        message
        for node in recording.nodes.values()
        for message in node.run_round(1, ())
    ]
    reference = SynchronousEngine(graph, _Relay, seed=1, backend="legacy")
    _check_and_learn(reference, sent)  # the set store walks the ids

    def unread(value):
        raise AssertionError("the mask store iterated a value")

    monkeypatch.setattr(IdSet, "__iter__", unread)
    replay = SynchronousEngine(graph, _Relay, seed=1, backend="fast")
    assert replay.universe is not recording.universe
    _check_and_learn(replay, sent)
    assert replay.knowledge_digest() == reference.knowledge_digest()
