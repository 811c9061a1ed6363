"""chord_discover — Chord-style finger-table successor propagation.

A structured-overlay discovery baseline in the spirit of Chord-based
self-stabilizing overlays (arXiv 1401.2008): machines live on the
identifier ring of :mod:`repro.graphs.idspace` and route knowledge along
*fingers* — for every power of two, the nearest known machine clockwise
of ``self + 2**k``.  The k = 0 finger is the believed ring successor, so
at quiescence knowledge is closed under believed-successor edges; walking
those edges traverses the full sorted ring of any maximal knowledge set,
which (with weak connectivity of the initial graph) forces every machine
to know every identifier.  Discovery emerges from Chord stabilization:
"who knows u" migrates clockwise toward u's ring predecessor, whose
successor finger then greets u directly.

Per round, each machine recomputes its finger set from current knowledge
(an O(log n)-entry table; the cached sorted view of ``known`` that
:meth:`~repro.algorithms.base.DiscoveryNode.sorted_peers` keeps makes
each recomputation ``O(RING_BITS · log n)``), greets first-time fingers
with a full knowledge snapshot, and pushes the round's knowledge delta to every
*link* — every machine that has ever been a finger.  Links only grow and
each link received the full snapshot when established plus every delta
since, so a link always knows at least what its owner knew last round;
fingers displaced by newly-learned closer machines keep receiving deltas,
which is what keeps the quiescence-implies-closure argument airtight as
the believed ring densifies.

The protocol is deterministic — finger selection uses only the ring
metric's clockwise tie-breaks, never the RNG — so all engine backends
and the live runtime agree digest-for-digest by construction.  Like the
other deterministic baselines it makes no liveness promise under crash
faults (a delta pushed to a dead successor is simply lost); the fault
tests treat that as incompletion, not as a violation.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Set, Tuple

from ..graphs.idspace import finger_targets, ring_successor
from ..sim.messages import Message
from .base import DiscoveryNode


class ChordDiscoverNode(DiscoveryNode):
    """One machine running finger-table discovery on the identifier ring."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        #: Every machine that has ever been a finger: greeted once with a
        #: full snapshot, then kept current with every subsequent delta.
        self._links: Set[int] = set()

    def finger_table(self) -> Tuple[int, ...]:
        """Distinct fingers, sorted: successor of ``self + 2**k`` per k."""
        ring = self.sorted_peers()
        if not ring:
            return ()
        fingers = {
            ring_successor(target, ring) for target in finger_targets(self.node_id)
        }
        return tuple(sorted(fingers))

    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> List[Message]:
        snapshot = self.knowledge_snapshot(include_self=False)
        delta = self.unsent_delta()
        self.mark_sent()
        outbox: List[Message] = []
        fresh: Set[int] = set()
        for peer in self.finger_table():
            if peer not in self._links:
                self._links.add(peer)
                fresh.add(peer)
                outbox.append(self.message(peer, "chord", ids=snapshot))
        if delta:
            for peer in sorted(self._links):
                if peer in fresh:
                    continue  # the greeting snapshot already covers the delta
                if len(delta) == 1 and peer in delta:
                    continue  # sole content is the recipient's own id
                outbox.append(self.message(peer, "chord", ids=delta))
        return outbox
