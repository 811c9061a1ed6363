"""Knowledge stores: the engine's ground truth behind one small seam.

:class:`~repro.sim.engine.SynchronousEngine` runs one round loop for
every backend; what differs between backends is only how each machine's
ground-truth knowledge is represented.  A store owns that representation
and offers the loop a handful of operations:

* :meth:`KnowledgeStore.check` — the legality guard over one outbox;
* :meth:`KnowledgeStore.learn` — deliver a batch of messages in order:
  file each message in the recipient's next inbox, hand it to the
  protocol's ``absorb``, then teach the recipient the sender and the
  carried ids;
* :attr:`KnowledgeStore.rows` — each machine's knowledge as a set.  The
  engine binds every protocol node to its machine's row, so the store's
  representation is the only copy of what a machine knows;
* :meth:`KnowledgeStore.digest` — the canonical SHA-256 of the state;
* completion counters (:attr:`~KnowledgeStore.complete_count`,
  :meth:`~KnowledgeStore.weak_leader`, alive coverage in
  :attr:`~KnowledgeStore.alive_complete`);
* :meth:`KnowledgeStore.inject` — out-of-band learning.

Two stores ship: :class:`SetStore` here (per-id sets, the reference
implementation) and :class:`~repro.sim.mask_store.MaskStore` (one
Python-int bitmask per machine).  The set store's rows are its own
``set``\\ s; the mask store hands out read-only
:class:`~repro.sim.mask_store.MaskRow`\\ s over its bits.  Both produce
identical digests, counters and
:class:`~repro.sim.errors.ProtocolViolation`\\ s, and the reference
legality scan (:meth:`KnowledgeStore.scan`) is the one the mask store
falls back to when its own guard suspects a violation.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..graphs.knowledge import digest_knowledge
from .errors import ProtocolViolation
from .messages import Message
from .node import ProtocolNode

class KnowledgeStore:
    """Ground-truth knowledge of one run, plus its derived counters.

    Args:
        node_ids: The machine ids in sorted order; machine ``node_ids[i]``
            has dense index ``i``.
        index: ``{machine id: dense index}``.
        initial: Each machine's initial knowledge, itself included.  The
            store takes these sets as its rows; the mask store reads
            them once and replaces them with views over its bits.
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
        #: ``{machine id: its knowledge}``, always current; each
        #: machine's protocol node reads its own row.  Only the store
        #: writes them.
        self.rows: Dict[int, AbstractSet[int]] = initial
        #: Machines that know every machine.
        self.complete_count = 0
        #: ``{alive machine: alive machines it knows}``.
        self.alive_known: Dict[int, int] = {}
        #: Alive machines that know every alive machine.
        self.alive_complete = 0

    def scan(self, node: int, outbox: Sequence[Message]) -> None:
        """Reference legality scan; raises on the first violation."""
        knowledge = self.rows[node]
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
        """Deliver *messages* in order and return the next round's inboxes.

        Each recipient's protocol node absorbs a message before the store
        teaches the recipient its sender and ids."""
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
    hold the other stores to it round by round.  The rows are the sets.
    """

    rows: Dict[int, Set[int]]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        known_by = {node: 0 for node in self.node_ids}
        for known in self.rows.values():
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
            nodes[recipient].absorb(message)
            self._learn(recipient, message.ids)
            self._learn(recipient, (message.sender,))
        return inboxes

    def _learn(self, node: int, new_ids: Iterable[int]) -> None:
        """The per-id learning rule."""
        knowledge = self.rows[node]
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
        return digest_knowledge({node: self.rows[node] for node in self.node_ids})

    def weak_leader(self) -> Optional[int]:
        n = self.n
        known_by = self._known_by
        for node in self.node_ids:
            if len(self.rows[node]) == n and known_by[node] == n:
                return node
        return None

    def rebuild_alive(self) -> None:
        alive = self.alive
        self.alive_known = {node: len(self.rows[node] & alive) for node in alive}
        self._count_alive_complete()

    def inject(self, node: int, ids: Collection[int]) -> None:
        self._learn(node, ids)
