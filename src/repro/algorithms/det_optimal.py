"""det_optimal — deterministic message-frugal aggregation/broadcast.

A reproduction-scale rendering of the Kniesburges–Koutsopoulos–Scheideler
deterministic message-optimal discovery structure (arXiv 1306.1692): KKS
recover a sorted-list/de-Bruijn overlay with O(n) messages in the worst
case by funnelling every identifier to a deterministic anchor and
re-broadcasting along the recovered structure.  This module keeps the
load-bearing ideas — **deterministic anchoring** (all knowledge converges
on the smallest known identifier; no coin flips anywhere, so both
engine backends and the live runtime are digest-identical by
construction) and **aggregate-then-broadcast** (one gated dissemination
wave instead of re-flooding on every change) — inside the repository's
clean ``run_round`` message-passing model.

Roles are emergent and monotone.  Knowledge only grows, so ``min(known)``
only decreases: a machine that once observes a smaller identifier is a
*member* forever; the unique global minimum is the final *root*.

Root (``min(known) == self``):
    *solicit* every newly-learned machine with an **empty** ``publish``
    (sender-learning teaches the recipient the root's identifier for one
    pointer of traffic — the root's BFS frontier); once a round delivers
    no new identifiers, broadcast to every known machine in one
    ``publish`` wave — a machine's first wave carries the full snapshot
    (it may have been learned after earlier waves and missed their
    deltas), every later one only the accumulated unsent delta.  The
    stability gate coalesces dissemination into a handful of waves,
    which is what keeps the message total linear.

Member (``min(known) < self``):
    report every identifier not yet reported to the current root in one
    ``report`` per round with pending content (the first report doubles
    as the announcement that lets the root learn the member exists via
    sender-learning).  A root change resets the bookkeeping — roots
    strictly decrease, so old state is dead weight.  A ``publish`` from
    the *current* root counts as already-reported content (the root
    evidently knows it), suppressing wave echo.

Rival-root collapse: a machine solicited by a stale root ``w`` (any
``publish`` whose sender exceeds the local minimum) *redirects* once,
reporting its better minimum straight back — the moment two aggregation
frontiers touch, the larger-rooted one learns a smaller identifier and
becomes a member, handing its entire harvest up in one report.  This
first-contact collapse (rather than waiting for the winning frontier to
reach the rival root itself) bounds duplicate solicitation.

Complexity: the root's frontier solicits each machine about once, each
machine reports a few times, and dissemination is one or two waves —
~8–13 messages per machine on the evaluation's random low-diameter
graphs, the message floor of the shipped suite (T2 measures it).  On
diameter-Θ(n) chains the member relay pipeline (each machine's interim
root is its neighbor until the true root's frontier arrives) degrades
the total to Θ(n·D) reports; rounds are Θ(D) with a small constant.
Crash faults void the liveness argument (a report aimed at a dead root
is lost; nothing retransmits), which the fault-model tests treat as
incompletion, never as an invariant violation.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Set

from ..sim.messages import Message
from .base import DiscoveryNode


class DetOptimalNode(DiscoveryNode):
    """One machine running the deterministic aggregation/broadcast protocol."""

    def __init__(self, node_id: int) -> None:
        super().__init__(node_id)
        #: Current aggregation root (``None`` while this machine leads).
        self._report_root: Optional[int] = None
        #: Ids already reported to (or published by) the current root.
        self._reported: Set[int] = set()
        #: Whether the current root has heard from us at least once.
        self._announced = False
        #: Root-side: machines already solicited.
        self._greeted: Set[int] = set()
        #: Root-side: machines that have reported to us at least once.
        self._announcers: Set[int] = set()
        #: Root-side: machines that have received at least one wave.  A
        #: machine's first wave carries the full snapshot (it may have
        #: been learned after earlier waves and so missed their deltas);
        #: every later wave carries only the delta.
        self._waved: Set[int] = set()
        #: Stale roots already redirected (one collapse ping each).
        self._redirected: Set[int] = set()
        #: Knowledge size after the previous round — the stability gate.
        self._seen_size = 0

    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> List[Message]:
        peers = self.sorted_peers()
        root = min(self.node_id, peers[0]) if peers else self.node_id
        if root != self.node_id and root != self._report_root:
            # Roots strictly decrease; bookkeeping for the old root is
            # permanently dead, so replace rather than accumulate.
            self._report_root = root
            self._reported = set()
            self._announced = False
        outbox: List[Message] = []
        for message in inbox:
            if message.kind == "report":
                self._announcers.add(message.sender)
            elif message.kind == "publish":
                if message.sender == self._report_root:
                    self._reported.update(message.ids)
                elif message.sender != root and message.sender not in self._redirected:
                    # Solicited by a stale root: teach it the better
                    # minimum once, collapsing its frontier on contact.
                    self._redirected.add(message.sender)
                    better = {root} - {self.node_id}
                    outbox.append(self.message(message.sender, "report", ids=better))
        grew = len(self.known) > self._seen_size
        self._seen_size = len(self.known)
        if root == self.node_id:
            outbox.extend(self._root_round(grew))
        else:
            outbox.extend(self._member_round(root))
        return outbox

    def _member_round(self, root: int) -> List[Message]:
        pending = set(self.sorted_peers()).difference(self._reported, (root,))
        if not pending and self._announced:
            return []
        self._reported.update(pending)
        self._announced = True
        return [self.message(root, "report", ids=sorted(pending))]

    def _root_round(self, grew: bool) -> List[Message]:
        snapshot = self.knowledge_snapshot(include_self=False)
        outbox: List[Message] = []
        for peer in sorted(snapshot - self._greeted - self._announcers):
            self._greeted.add(peer)
            outbox.append(self.message(peer, "publish"))
        delta = self.unsent_delta()
        if delta and not grew:
            self.mark_sent()
            for peer in sorted(snapshot):
                if peer not in self._waved:
                    self._waved.add(peer)
                    outbox.append(self.message(peer, "publish", ids=snapshot))
                elif not (len(delta) == 1 and peer in delta):
                    outbox.append(self.message(peer, "publish", ids=delta))
        return outbox
