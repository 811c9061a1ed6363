"""One copy of each machine's knowledge: protocol nodes read the store's rows.

Every store hands each protocol node its machine's row at bind time and
``engine.knowledge`` hands out the same rows, so a delivery or an
injection shows in both at once.  The set store's rows are its own
``set``\\ s; the fast and vector stores' rows are read-only views over
their bits, which must read exactly like sets: membership, size,
ascending iteration, equality, and set algebra that returns plain sets.
The host learns each message after the protocol's ``absorb`` has seen
it, on every store and on the live host alike.
"""

from __future__ import annotations

import asyncio
import random
from typing import Dict, List, Sequence, Tuple

import pytest

from repro.algorithms.base import DiscoveryNode
from repro.algorithms.name_dropper import NameDropperNode
from repro.live.cluster import ClusterSpec, LiveCluster
from repro.sim import vector_available
from repro.sim.engine import SynchronousEngine
from repro.sim.messages import Message
from repro.sim.node import ProtocolNode

BACKENDS = ("legacy", "fast") + (("vector",) if vector_available() else ())
VIEW_BACKENDS = tuple(backend for backend in BACKENDS if backend != "legacy")

N = 80


def machine_ids(id_space: str) -> List[int]:
    if id_space == "dense":
        return list(range(N))
    return sorted(random.Random(5).sample(range(1 << 48), N))


def rows_graph(ids: List[int]) -> Dict[int, set]:
    """Machine 0 knows 3 others (a row of at most 32 bits), machine 1
    knows 50 others, machine 2 knows everyone, the rest one neighbour."""
    adjacency = {node: {ids[(pos + 1) % N]} for pos, node in enumerate(ids)}
    adjacency[ids[0]] = {ids[5], ids[40], ids[79]}
    adjacency[ids[1]] = set(ids[10:60])
    adjacency[ids[2]] = set(ids) - {ids[2]}
    return adjacency


class SilentNode(ProtocolNode):
    def on_round(self, round_no: int, inbox: Sequence[Message], rng) -> None:
        pass


class ScriptedNode(DiscoveryNode):
    """Sends ``script[(node, round)] = (recipient, ids)`` and nothing else."""

    script: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}

    def on_round(self, round_no: int, inbox: Sequence[Message], rng):
        step = self.script.get((self.node_id, round_no))
        if step is None:
            return None
        recipient, ids = step
        return [self.message(recipient, "tell", ids=ids)]


def scripted(script) -> type:
    return type("BoundScriptedNode", (ScriptedNode,), {"script": script})


@pytest.mark.parametrize("id_space", ["dense", "random"])
@pytest.mark.parametrize("backend", BACKENDS)
class TestRowsReadTheStore:
    def _engine(self, backend: str, id_space: str):
        ids = machine_ids(id_space)
        adjacency = rows_graph(ids)
        engine = SynchronousEngine(adjacency, SilentNode, backend=backend)
        expected = {node: known | {node} for node, known in adjacency.items()}
        return engine, ids, expected

    def test_nodes_read_the_rows_knowledge_hands_out(self, backend, id_space):
        engine, _, _ = self._engine(backend, id_space)
        for node in engine.node_ids:
            assert engine.nodes[node].known is engine.knowledge[node]

    @pytest.mark.parametrize("which", [0, 1, 2], ids=["sparse", "wide", "complete"])
    def test_row_reads_like_a_set(self, backend, id_space, which):
        engine, ids, expected = self._engine(backend, id_space)
        node = ids[which]
        row = engine.nodes[node].known
        want = expected[node]
        assert len(row) == len(want)
        assert row == want and want == row
        assert all(member in row for member in want)
        outsider = next(machine for machine in ids if machine not in want) if which < 2 else None
        if outsider is not None:
            assert outsider not in row
        assert ids[-1] + 1 not in row  # names no machine
        assert sorted(row) == sorted(want)
        for result, reference in [
            (row - {node}, want - {node}),
            ({node, ids[3]} - row, {node, ids[3]} - want),
            (row & {node, ids[3]}, want & {node, ids[3]}),
            ({node, ids[3]} & row, want & {node, ids[3]}),
            (row | {ids[3]}, want | {ids[3]}),
            ({ids[3]} | row, want | {ids[3]}),
        ]:
            assert type(result) is set
            assert result == reference
        assert frozenset(row) == frozenset(want)
        assert min(row) == min(want)
        with pytest.raises(TypeError):
            [node] in row  # noqa: B015 - an unhashable probe raises, as for a set

    def test_delivery_shows_in_node_and_knowledge(self, backend, id_space):
        ids = machine_ids(id_space)
        adjacency = rows_graph(ids)
        teller, listener = ids[2], ids[7]
        script = {(teller, 1): (listener, (ids[20], ids[30]))}
        engine = SynchronousEngine(adjacency, scripted(script), backend=backend)
        known = engine.nodes[listener].known
        assert teller not in known
        engine.step()
        assert known is engine.knowledge[listener]
        assert {teller, ids[20], ids[30]} <= known
        assert len(known) == 5

    def test_injection_shows_in_node_and_knowledge(self, backend, id_space):
        engine, ids, expected = self._engine(backend, id_space)
        node = ids[0]
        assert engine.inject_knowledge(node, {ids[33], ids[34]})
        assert engine.nodes[node].known is engine.knowledge[node]
        assert engine.nodes[node].known == expected[node] | {ids[33], ids[34]}


@pytest.mark.parametrize("id_space", ["dense", "random"])
@pytest.mark.parametrize("backend", VIEW_BACKENDS)
@pytest.mark.parametrize("which", [0, 1, 2], ids=["sparse", "wide", "complete"])
def test_view_rows_iterate_node_ids_ascending(backend, id_space, which):
    ids = machine_ids(id_space)
    engine = SynchronousEngine(rows_graph(ids), SilentNode, backend=backend)
    row = engine.knowledge[ids[which]]
    listed = list(row)
    assert listed == sorted(listed)
    # The ids are the engine's own int objects, not copies.
    position = {node: pos for pos, node in enumerate(engine.node_ids)}
    assert all(node is engine.node_ids[position[node]] for node in listed)


@pytest.mark.parametrize("backend", BACKENDS)
def test_caches_stay_current_without_a_hook(backend):
    ids = machine_ids("dense")
    adjacency = rows_graph(ids)
    script = {(ids[2], 1): (ids[7], (ids[20],))}
    engine = SynchronousEngine(adjacency, scripted(script), backend=backend)
    node = engine.nodes[ids[7]]
    assert node.sorted_peers() == [ids[8]]
    assert node.knowledge_snapshot() == {ids[7], ids[8]}
    engine.step()  # the host learns the delivery
    assert node.sorted_peers() == [ids[2], ids[8], ids[20]]
    assert node.knowledge_snapshot() == {ids[2], ids[7], ids[8], ids[20]}
    assert node.unsent_delta() == {ids[2], ids[8], ids[20]}
    node.mark_sent()
    engine.inject_knowledge(ids[7], {ids[50]})
    assert node.sorted_peers() == [ids[2], ids[8], ids[20], ids[50]]
    assert ids[50] in node.knowledge_snapshot(include_self=False)
    assert node.unsent_delta() == {ids[50]}


class ProbeNode(NameDropperNode):
    """Name-Dropper that records, inside ``absorb``, what it knew before
    each message: whether it knew the sender, its knowledge size, and how
    many of the carried ids it knew."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self.seen: List[Tuple[int, bool, int, int]] = []

    def absorb(self, message: Message) -> None:
        known = self.known
        self.seen.append(
            (
                message.sender,
                message.sender in known,
                len(known),
                sum(1 for target in message.ids if target in known),
            )
        )


class ProbeSpec(ClusterSpec):
    def node_factory(self):
        return ProbeNode


ROUNDS = 4


def probe_records_sim(spec: ClusterSpec, backend: str) -> Dict[int, list]:
    engine = SynchronousEngine(
        spec.build_graph(), ProbeNode, seed=spec.seed, backend=backend
    )
    for _ in range(ROUNDS):
        engine.step()
    return {node: protocol.seen for node, protocol in engine.nodes.items()}


def probe_records_live(spec: ClusterSpec) -> Dict[int, list]:
    async def scenario():
        cluster = LiveCluster(spec)
        await cluster.start()
        try:
            await cluster.run_discovery()
        finally:
            await cluster.close()
        return {node: runtime.protocol.seen for node, runtime in cluster.nodes.items()}

    return asyncio.run(scenario())


def test_absorb_sees_pre_message_knowledge_on_every_host():
    spec = ProbeSpec(n=10, topology="kout", algorithm="namedropper", seed=4, rounds=ROUNDS)
    records = {backend: probe_records_sim(spec, backend) for backend in BACKENDS}
    records["live"] = probe_records_live(spec)
    reference = records["legacy"]
    seen = [entry for entries in reference.values() for entry in entries]
    # The probe saw both cases: senders it already knew and senders it
    # learned from the very message.
    assert {known for _, known, _, _ in seen} == {True, False}
    for host, by_node in records.items():
        assert by_node == reference, host
