"""Common machinery for discovery protocol implementations.

:class:`DiscoveryNode` extends the protocol core's :class:`ProtocolNode`
with the bookkeeping every gossip-style algorithm needs: knowledge
snapshots (shared, copy-once frozensets so that a broadcast to many
recipients does not materialize the pointer set per recipient), a sorted
view of the known peers (for seeded peer sampling and ring routing), and
delta tracking (ids learned since the last send).

The snapshot and the sorted view are derived views of ``self.known``;
they are invalidated through the core's
:meth:`~repro.sim.node.ProtocolNode._knowledge_changed`
hook, which fires for *every* sanctioned knowledge write (``absorb``,
``bind``, and host-side ``learn()`` calls alike) — so no host can teach a
node and then read a stale snapshot.
"""

from __future__ import annotations

import random
from typing import FrozenSet, List, Optional, Set


from ..sim.node import ProtocolNode


class DiscoveryNode(ProtocolNode):
    """Protocol node with knowledge snapshot/delta helpers."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        self._snapshot: Optional[FrozenSet[int]] = None
        self._sorted_peers: Optional[List[int]] = None
        self._sent_before: Set[int] = set()

    def _knowledge_changed(self) -> None:
        # Knowledge changed; invalidate the cached views.
        self._snapshot = None
        self._sorted_peers = None

    def knowledge_snapshot(self, include_self: bool = True) -> FrozenSet[int]:
        """A frozen copy of current knowledge, cached until it changes.

        Sharing one frozenset across all recipients of a round keeps the
        memory cost of full-knowledge broadcasts at O(|known|) per sender
        per round instead of O(|known| × recipients).
        """
        if self._snapshot is None:
            self._snapshot = frozenset(self.known)
        if include_self:
            return self._snapshot
        return self._snapshot - {self.node_id}

    def unsent_delta(self) -> FrozenSet[int]:
        """Ids learned since the last :meth:`mark_sent` call (self excluded)."""
        return frozenset(self.known - self._sent_before - {self.node_id})

    def mark_sent(self) -> None:
        """Record that everything currently known has been shared."""
        self._sent_before = set(self.known)

    def sorted_peers(self) -> List[int]:
        """Known machines other than self, ascending; cached until
        knowledge changes.  The list is shared: do not mutate it."""
        if self._sorted_peers is None:
            self._sorted_peers = sorted(self.known - {self.node_id})
        return self._sorted_peers

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
