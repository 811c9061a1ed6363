"""Common machinery for discovery protocol implementations.

:class:`DiscoveryNode` extends the protocol core's :class:`ProtocolNode`
with the bookkeeping every gossip-style algorithm needs: knowledge
snapshots (one immutable payload shared by every recipient, so that a
broadcast to many recipients does not materialize the pointer set per
recipient), a sorted view of the known peers (for seeded peer sampling
and ring routing), and delta tracking (ids learned since the last send).

The snapshot and the sorted view are derived from ``self.known``, the
node's row of the host's knowledge.  Knowledge only grows, so both are
cached against the row's size and rebuilt when it changes — whoever
taught the node, the host never has to tell it.  The snapshot is
:meth:`~repro.sim.node.ProtocolNode.id_set` of the row: on the mask
store the row's own mask, with no copy.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import AbstractSet, List, Optional

from ..sim.node import ProtocolNode


class DiscoveryNode(ProtocolNode):
    """Protocol node with knowledge snapshot/delta helpers."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        #: ``len(self.known)`` when each cached view below was built.
        self._peers_size = 0
        self._snapshot_size = 0
        self._snapshot: AbstractSet[int] = frozenset()
        self._sorted_peers: List[int] = []
        self._sent_before: AbstractSet[int] = frozenset()

    def sorted_peers(self) -> List[int]:
        """Known machines other than self, ascending; cached until
        knowledge grows.  The list is shared: do not mutate it."""
        known = self.known
        if len(known) != self._peers_size:
            self._peers_size = len(known)
            # The fast store's rows iterate in ascending id order,
            # which makes the sort a linear pass.
            peers = list(known)
            peers.sort()
            del peers[bisect_left(peers, self.node_id)]
            self._sorted_peers = peers
        return self._sorted_peers

    def knowledge_snapshot(self, include_self: bool = True) -> AbstractSet[int]:
        """Current knowledge as an immutable payload, cached until it grows.

        Every recipient of a round shares the one object, so a
        full-knowledge broadcast costs O(|known|) per sender per round,
        not O(|known| × recipients); on the simulator it is an n-bit
        value (:meth:`~repro.sim.node.ProtocolNode.id_set`).
        """
        known = self.known
        if len(known) != self._snapshot_size:
            self._snapshot_size = len(known)
            self._snapshot = self.id_set(known)
        if include_self:
            return self._snapshot
        return self._snapshot - {self.node_id}

    def unsent_delta(self) -> AbstractSet[int]:
        """Ids learned since the last :meth:`mark_sent` call (self excluded)."""
        return self.knowledge_snapshot() - self._sent_before - {self.node_id}

    def mark_sent(self) -> None:
        """Record that everything currently known has been shared."""
        self._sent_before = self.knowledge_snapshot()

    def pick_random_peer(self, rng: Optional[random.Random] = None) -> Optional[int]:
        """A uniformly random known machine other than self, or ``None``.

        Draws from *rng* (defaulting to the node's bound stream).  Sampling
        from the sorted view keeps runs deterministic in the seed: Python
        set iteration order depends on insertion history, which in turn
        depends on inbox ordering — sorting removes that sensitivity.
        """
        peers = self.sorted_peers()
        if not peers:
            return None
        if rng is None:
            rng = self.rng
        return peers[rng.randrange(len(peers))]
