"""Swamping — knowledge-graph squaring, the O(log diameter) round baseline.

Every round, every machine sends its knowledge to *every machine it knows*.
The knowledge graph squares each round (after round t a machine knows its
2^t-neighborhood), so strong discovery completes in ⌈log₂ D⌉ + O(1) rounds
— round-optimal by the ball-containment bound, but at brutal cost: the
number of messages per round grows towards n² and the pointer complexity
towards n³.  Swamping is the "round-optimal but unaffordable" anchor of the
evaluation; the point of the sub-logarithmic algorithm is to beat its round
count on low-diameter inputs while spending ~n messages per round, not n².

Two variants are provided:

* ``full=True`` (classic): sends the entire knowledge set every round —
  the textbook definition, used for the complexity tables at small n.
* ``full=False`` (delta): each established peer receives only ids that are
  new since the previous send *to anyone*; a peer contacted for the first
  time receives the full set.  Round behavior is identical (every known id
  still reaches every known peer — see the invariant below) at sharply
  lower pointer cost, which lets the round-scaling experiments run at
  larger n.

Delta-variant invariant: for every ordered pair (u, w), by the end of the
round after u learns w, every peer v that u knows has been sent w by u —
either inside a delta (v was already greeted) or inside the full greeting
snapshot (v greeted later).

Reference: Harchol-Balter, Leighton, Lewin, PODC 1999.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set

from ..sim.messages import Message
from .base import DiscoveryNode


class SwampingNode(DiscoveryNode):
    """One machine running swamping.

    Args:
        node_id: This machine's identifier.
        full: Classic full-knowledge sends when ``True`` (default);
            delta sends when ``False``.
    """

    def __init__(self, node_id: int, full: bool = True) -> None:
        super().__init__(node_id)
        self.full = full
        self._greeted: Set[int] = set()

    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> List[Message]:
        # One shared snapshot per round: all recipients receive the SAME
        # payload object.  Subtracting the recipient per message
        # (``snapshot - {peer}``) would materialize n fresh n-element sets
        # per sender — n³ memory per round, observed as an OOM kill at
        # n = 1024 with frozensets.  Including the recipient's own id is
        # harmless (it knows itself) and matches HBLL's definition, where
        # a machine ships its entire pointer list.
        snapshot = self.knowledge_snapshot(include_self=False)
        outbox: List[Message] = []
        if self.full:
            for peer in sorted(snapshot):
                outbox.append(self.message(peer, "swamp", ids=snapshot))
            return outbox

        delta = self.unsent_delta()
        self.mark_sent()
        for peer in sorted(snapshot):
            if peer not in self._greeted:
                self._greeted.add(peer)
                outbox.append(self.message(peer, "swamp", ids=snapshot))
            else:
                if delta and not (len(delta) == 1 and peer in delta):
                    outbox.append(self.message(peer, "swamp", ids=delta))
        return outbox
