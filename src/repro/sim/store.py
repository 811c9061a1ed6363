"""Knowledge stores: the engine's ground truth behind one small seam.

:class:`~repro.sim.engine.SynchronousEngine` runs one round loop for
every backend; what differs between backends is only how each machine's
ground-truth knowledge is represented.  A store owns that representation
and offers the loop a handful of operations:

* :meth:`KnowledgeStore.check` — the legality guard over one outbox;
* :meth:`KnowledgeStore.learn` — deliver a batch of messages in order:
  teach each recipient the sender and the carried ids, file the message
  in the recipient's next inbox and hand it to the protocol's ``absorb``;
* :attr:`KnowledgeStore.sets` — the knowledge as per-machine ``set``\\ s,
  which the other stores build lazily, on read;
* :meth:`KnowledgeStore.digest` — the canonical SHA-256 of the state;
* completion counters (:attr:`~KnowledgeStore.complete_count`,
  :meth:`~KnowledgeStore.weak_leader`, alive coverage in
  :attr:`~KnowledgeStore.alive_complete`);
* :meth:`KnowledgeStore.inject` and
  :meth:`KnowledgeStore.inject_near_complete` — out-of-band learning.

Three stores ship: :class:`SetStore` here (per-id sets, the reference
implementation), :class:`~repro.sim.mask_store.MaskStore` (one Python-int
bitmask per machine) and :class:`~repro.sim.vector_kernel.VectorState`
(one bit-packed numpy matrix).  All three produce identical digests,
counters and :class:`~repro.sim.errors.ProtocolViolation`\\ s, and the
reference legality scan (:meth:`KnowledgeStore.scan`) is the one every
store falls back to when its own guard suspects a violation.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..graphs.knowledge import digest_knowledge
from .errors import ProtocolViolation
from .messages import Message
from .node import ProtocolNode

#: ``(missing ids, machines missing them)`` groups for
#: :meth:`KnowledgeStore.inject_near_complete`.
MissingGroups = Iterable[Tuple[Collection[int], Sequence[int]]]


class KnowledgeStore:
    """Ground-truth knowledge of one run, plus its derived counters.

    Args:
        node_ids: The machine ids in sorted order; machine ``node_ids[i]``
            has dense index ``i``.
        index: ``{machine id: dense index}``.
        initial: Each machine's initial knowledge, itself included.  The
            store takes ownership of these sets.
        alive: The engine's set of machines that have not crashed; the
            store reads it (shared, never written) for alive coverage.
        max_delay: The most rounds a message can spend in flight.
    """

    def __init__(
        self,
        node_ids: Sequence[int],
        index: Mapping[int, int],
        initial: Dict[int, Set[int]],
        alive: Set[int],
        max_delay: int = 1,
    ) -> None:
        self.n = len(node_ids)
        self.node_ids = node_ids
        self.index = index
        self.id_set = frozenset(node_ids)
        self.alive = alive
        self.max_delay = max_delay
        self._sets = initial
        #: Whether :attr:`sets` lags behind the store's own representation.
        self.stale = False
        #: Machines that know every machine.
        self.complete_count = 0
        #: ``{alive machine: alive machines it knows}``.
        self.alive_known: Dict[int, int] = {}
        #: Alive machines that know every alive machine.
        self.alive_complete = 0

    @property
    def sets(self) -> Dict[int, Set[int]]:
        """Knowledge as ``{machine id: set of ids}``, current when read."""
        if self.stale:
            self._sync_sets()
            self.stale = False
        return self._sets

    def _sync_sets(self) -> None:
        """Fold what was learned since the last read into :attr:`sets`."""

    def scan(self, node: int, outbox: Sequence[Message]) -> None:
        """Reference legality scan; raises on the first violation."""
        knowledge = self.sets[node]
        for message in outbox:
            if message.recipient not in knowledge:
                raise ProtocolViolation(
                    node,
                    f"sent {message.kind!r} to unknown node {message.recipient}",
                )
            for target in message.ids:
                if target not in knowledge:
                    raise ProtocolViolation(
                        node,
                        f"{message.kind!r} message carries unknown id {target}",
                    )

    def check(self, node: int, outbox: Sequence[Message]) -> None:
        """Legality guard: *node* may send *outbox* given what it knows."""
        self.scan(node, outbox)

    def learn(
        self, messages: Sequence[Message], nodes: Mapping[int, ProtocolNode]
    ) -> Dict[int, List[Message]]:
        """Deliver *messages* in order and return the next round's inboxes."""
        raise NotImplementedError

    def digest(self) -> str:
        """Canonical SHA-256 digest: each machine's knowledge as a
        little-endian dense bitmask, concatenated in sorted-id order."""
        raise NotImplementedError

    def weak_leader(self) -> Optional[int]:
        """The first machine that knows everyone and is known by everyone."""
        raise NotImplementedError

    def rebuild_alive(self) -> None:
        """Recount alive coverage after the alive set shrank."""
        raise NotImplementedError

    def inject(self, node: int, ids: Collection[int]) -> None:
        """Teach *node* the real machine ids *ids* (its own id excluded)."""
        raise NotImplementedError

    def inject_near_complete(self, missing: MissingGroups, keep_sets: bool) -> None:
        """Overwrite the state: every machine knows every machine except
        that the machines of each group miss that group's ids.

        With ``keep_sets=False`` the :attr:`sets` are left empty instead
        of rebuilt (a benchmark at large n cannot afford them); digests
        and counters stay exact.
        """
        groups = [(ids, nodes) for ids, nodes in missing if ids and nodes]
        if keep_sets:
            # Complete machines share one set: they never learn again.
            full = set(self.node_ids)
            self._sets = dict.fromkeys(self.node_ids, full)
            for ids, nodes in groups:
                for node in nodes:
                    self._sets[node] = full.difference(ids)
        else:
            self._sets = {}
        self.stale = False
        self.complete_count = self.n - sum(len(nodes) for _, nodes in groups)
        self._load_near_complete(groups)
        self.rebuild_alive()

    def _load_near_complete(
        self, groups: List[Tuple[Collection[int], Sequence[int]]]
    ) -> None:
        raise NotImplementedError

    def _credit_alive(self, node: int, gain: int) -> None:
        """Count *gain* newly known alive machines for alive *node*."""
        count = self.alive_known[node] + gain
        self.alive_known[node] = count
        if count == len(self.alive):
            self.alive_complete += 1

    def _count_alive_complete(self) -> None:
        target = len(self.alive)
        self.alive_complete = sum(
            1 for count in self.alive_known.values() if count == target
        )


class SetStore(KnowledgeStore):
    """Per-machine ``set``\\ s walked id by id: the reference store.

    Simple and obviously correct; the differential runner and the fuzzer
    hold the other stores to it round by round.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        known_by = {node: 0 for node in self.node_ids}
        for known in self._sets.values():
            for target in known:
                known_by[target] += 1
            if len(known) == self.n:
                self.complete_count += 1
        self._known_by = known_by
        self.rebuild_alive()

    def learn(
        self, messages: Sequence[Message], nodes: Mapping[int, ProtocolNode]
    ) -> Dict[int, List[Message]]:
        inboxes: Dict[int, List[Message]] = {}
        for message in messages:
            recipient = message.recipient
            inboxes.setdefault(recipient, []).append(message)
            self._learn(recipient, message.ids)
            self._learn(recipient, (message.sender,))
            nodes[recipient].absorb(message)
        return inboxes

    def _learn(self, node: int, new_ids: Iterable[int]) -> None:
        """The per-id learning rule."""
        knowledge = self._sets[node]
        before = len(knowledge)
        alive = self.alive
        alive_gain = 0
        for target in new_ids:
            if target in knowledge:
                continue
            if target not in self.id_set:
                # Only reachable with legality enforcement disabled: a
                # protocol smuggled an id that names no simulated machine.
                # Ignoring it keeps ground truth well-defined.
                continue
            knowledge.add(target)
            self._known_by[target] += 1
            if target in alive:
                alive_gain += 1
        if len(knowledge) == self.n and before < self.n:
            self.complete_count += 1
        if alive_gain and node in alive:
            self._credit_alive(node, alive_gain)

    def digest(self) -> str:
        return digest_knowledge({node: self._sets[node] for node in self.node_ids})

    def weak_leader(self) -> Optional[int]:
        n = self.n
        known_by = self._known_by
        for node in self.node_ids:
            if len(self._sets[node]) == n and known_by[node] == n:
                return node
        return None

    def rebuild_alive(self) -> None:
        alive = self.alive
        self.alive_known = {node: len(self._sets[node] & alive) for node in alive}
        self._count_alive_complete()

    def inject(self, node: int, ids: Collection[int]) -> None:
        self._learn(node, ids)

    def inject_near_complete(self, missing: MissingGroups, keep_sets: bool) -> None:
        if not keep_sets:
            raise ValueError(
                "keep_sets=False is meaningless on the legacy backend, "
                "which computes on the sets"
            )
        super().inject_near_complete(missing, keep_sets)

    def _load_near_complete(
        self, groups: List[Tuple[Collection[int], Sequence[int]]]
    ) -> None:
        known_by = {node: self.n for node in self.node_ids}
        for ids, nodes in groups:
            for target in ids:
                known_by[target] -= len(nodes)
        self._known_by = known_by
