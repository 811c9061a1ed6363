"""Common machinery for discovery protocol implementations.

:class:`DiscoveryNode` extends the protocol core's :class:`ProtocolNode`
with the bookkeeping every gossip-style algorithm needs: knowledge
snapshots (shared, copy-once frozensets so that a broadcast to many
recipients does not materialize the pointer set per recipient), a sorted
view of the known peers (for seeded peer sampling and ring routing), and
delta tracking (ids learned since the last send).

The snapshot and the sorted view are derived from ``self.known``, the
node's row of the host's knowledge.  Knowledge only grows, so both are
cached against the row's size and rebuilt from one pass over the row
when it changes — whoever taught the node, the host never has to tell
it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import FrozenSet, List, Optional


from ..sim.node import ProtocolNode


class DiscoveryNode(ProtocolNode):
    """Protocol node with knowledge snapshot/delta helpers."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        #: ``len(self.known)`` when the cached views below were built.
        self._views_size = 0
        self._snapshot: Optional[FrozenSet[int]] = None
        self._sorted_peers: List[int] = []
        self._sent_before: FrozenSet[int] = frozenset()

    def sorted_peers(self) -> List[int]:
        """Known machines other than self, ascending; cached until
        knowledge grows.  The list is shared: do not mutate it."""
        known = self.known
        if len(known) != self._views_size:
            self._views_size = len(known)
            self._snapshot = None
            # The fast and vector stores' rows iterate in ascending id
            # order, which makes the sort a linear pass.
            peers = list(known)
            peers.sort()
            del peers[bisect_left(peers, self.node_id)]
            self._sorted_peers = peers
        return self._sorted_peers

    def knowledge_snapshot(self, include_self: bool = True) -> FrozenSet[int]:
        """A frozen copy of current knowledge, cached until it grows.

        Sharing one frozenset across all recipients of a round keeps the
        memory cost of full-knowledge broadcasts at O(|known|) per sender
        per round instead of O(|known| × recipients).  It is built from
        the same pass over the row as :meth:`sorted_peers`.
        """
        peers = self.sorted_peers()
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = frozenset(peers + [self.node_id])
        if include_self:
            return snapshot
        return snapshot - {self.node_id}

    def unsent_delta(self) -> FrozenSet[int]:
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
