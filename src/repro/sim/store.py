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
* the goals, read from the knowledge when asked:
  :meth:`~KnowledgeStore.closed` (every machine of a set knows every
  machine of it) and :meth:`~KnowledgeStore.weak_leader`;
* :meth:`KnowledgeStore.inject` — out-of-band learning.

A store holds knowledge only: it keeps no goal counters and never hears
about crashes; the engine passes the alive machines to
:meth:`~KnowledgeStore.closed` when its goal needs them.

Two stores ship: :class:`SetStore` here (per-id sets, the reference
implementation) and :class:`~repro.sim.mask_store.MaskStore` (one
Python-int bitmask per machine).  The set store's rows are its own
``set``\\ s; the mask store hands out read-only
:class:`~repro.sim.mask_store.MaskRow`\\ s over its bits.  Both produce
identical digests, goal verdicts and
:class:`~repro.sim.errors.ProtocolViolation`\\ s, and the reference
legality scan (:meth:`KnowledgeStore.scan`) is the one the mask store
falls back to when its own guard suspects a violation.

Payloads reach both stores as they were built: tuples, frozensets, or
:class:`~repro.sim.idset.IdSet` values over the run's dense index
(:attr:`KnowledgeStore.universe`).  The set store walks a value's ids one
by one like any other payload; the mask store reads a value's bits and
converts any other payload to a mask.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..graphs.knowledge import digest_knowledge
from .errors import ProtocolViolation
from .idset import IdUniverse
from .messages import Message
from .node import ProtocolNode


class KnowledgeStore:
    """Ground-truth knowledge of one run.

    Args:
        universe: The run's machine ids in dense order; machine
            ``universe.node_ids[i]`` has dense index ``i``.
        initial: Each machine's initial knowledge, itself included.  The
            store takes these sets as its rows; the mask store reads
            them once and replaces them with views over its bits.
    """

    def __init__(self, universe: IdUniverse, initial: Dict[int, Set[int]]) -> None:
        self.universe = universe
        self.n = universe.n
        self.node_ids = universe.node_ids
        self.index = universe.index
        #: ``{machine id: its knowledge}``, always current; each
        #: machine's protocol node reads its own row.  Only the store
        #: writes them.
        self.rows: Dict[int, AbstractSet[int]] = initial

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

    def closed(self, nodes: Collection[int]) -> bool:
        """Whether every machine in *nodes* knows every machine in *nodes*.

        ``closed(node_ids)`` is strong discovery and ``closed(alive)``
        its survivors-only form; an empty *nodes* is closed."""
        raise NotImplementedError

    def weak_leader(self) -> Optional[int]:
        """The first machine that knows everyone and is known by everyone."""
        raise NotImplementedError

    def inject(self, node: int, ids: Collection[int]) -> None:
        """Teach *node* the real machine ids *ids* (its own id excluded)."""
        raise NotImplementedError


class SetStore(KnowledgeStore):
    """Per-machine ``set``\\ s walked id by id: the reference store.

    Simple and obviously correct; the differential runner and the fuzzer
    hold the other stores to it round by round.  The rows are the sets.
    """

    rows: Dict[int, Set[int]]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.id_set = frozenset(self.node_ids)

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
        for target in new_ids:
            if target in knowledge:
                continue
            if target not in self.id_set:
                # Only reachable with legality enforcement disabled: a
                # protocol smuggled an id that names no simulated machine.
                # Ignoring it keeps ground truth well-defined.
                continue
            knowledge.add(target)

    def digest(self) -> str:
        return digest_knowledge({node: self.rows[node] for node in self.node_ids})

    def closed(self, nodes: Collection[int]) -> bool:
        want = frozenset(nodes)
        rows = self.rows
        return all(want <= rows[node] for node in want)

    def weak_leader(self) -> Optional[int]:
        # The complete machines, narrowed to those every row holds; the
        # ids ascend in dense order, so the smallest one is the first.
        n = self.n
        rows = self.rows
        common = {node for node in self.node_ids if len(rows[node]) == n}
        for known in rows.values():
            if not common:
                return None
            common &= known
        return min(common, default=None)

    def inject(self, node: int, ids: Collection[int]) -> None:
        self._learn(node, ids)
