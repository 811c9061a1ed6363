"""SubLogDiscovery — the sub-logarithmic resource-discovery algorithm.

This module implements the core contribution of the reproduction: a
cluster-merging discovery algorithm whose round complexity is
O(log log n) on the low-diameter inputs where sub-logarithmic discovery is
possible (see the ball-containment bound in DESIGN.md section 1) and which
sends O(n) messages per phase, i.e. near-optimal message complexity.

Mechanism (one 6-round phase; see :mod:`repro.core.phases`):

1. **REPORT** — every member ships its newly learned external contacts to
   its leader.  Leaders absorb their own contacts directly.
2. **ASSIGN** — the leader dedupes the resulting candidate *pool* against
   its roster and delegates each candidate to one member ("you will invite
   this machine"), flipping the phase coin.  Delegation is what lets a
   size-s cluster touch up to s foreign clusters in a single phase — the
   engine of cluster-size *squaring*.  Leaders with an empty pool instead
   broadcast their roster (completion) and send empty heartbeat assigns.
3. **INVITE** — members send ``invite(leader, size, coin)`` to their
   targets.
4. **FORWARD** — an invited machine forwards the invite to its own leader
   (so decisions are made cluster-by-cluster, not machine-by-machine).
   Crucially the invited *cluster learns the inviter's leader*: even if no
   merge happens this phase, the knowledge edge between the two clusters
   is preserved in reverse, so connectivity of the cluster graph is never
   lost.
5. **DECIDE** — each leader applies the contraction rule.
   ``rank`` (default): a cluster joins its largest inviter whenever that
   inviter's (size, id) strictly exceeds its own (size, id).  The stale
   snapshot keys carried by invites make the join relation acyclic (sizes
   only grow, so a cycle would force a strictly increasing sequence of
   keys back to its start).  Merge *chains* — A joins B while B joins C —
   are collapsed by forwarding: a leader that receives a join while
   itself mid-join passes it upstream, one hop per round, overlapping
   the following phases; once welcomed, members shortcut forwarded joins
   straight to their current leader.  Entire chains of clusters coalesce
   per phase, which is what produces the doubly-exponential drop in
   cluster count.
   ``coin`` (ablation): randomized star contraction — a *tail*
   (coin = false) cluster invited by at least one *head* (coin = true)
   joins its largest head inviter.  Merges are guaranteed depth-1 (no
   forwarding), but only ~half the clusters merge per phase: Θ(log n)
   phases, measured in experiment T5.
   A joining leader sends its roster and residual pool to the winner.
6. **ABSORB** — the winning leader absorbs joiners and welcomes every new
   member (the welcome installs the new leader pointer).

**Dynamics.**  When the cluster graph is dense (every cluster of size s has
contacts in ~s other clusters — what delegation creates on expander-like
inputs), rank contraction coalesces whole chains: the cluster count drops
from c to roughly c/s per phase, i.e. the minimum cluster size grows like
s → Θ(s²): O(log log n) phases (measured: 2–4 phases for n up to 4096 on
random k-out inputs, experiment F2).  On high-diameter inputs (a path:
every cluster borders only 2 others) growth degrades to a constant factor
per phase — O(log n) phases, which is optimal there anyway by the
ball-containment bound.

**Self-healing.**  Every handler tolerates stale state: a machine that
receives a report/forward/join while no longer a leader forwards it up its
leader pointer and issues a corrective welcome; leaders re-decide joins
each phase; with ``resilient=True`` pool entries survive until the merge
is confirmed, making the protocol robust to message loss.  With
``watchdog_phases`` set, members that lose their leader (crash faults)
revert to singleton clusters and re-discover.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..algorithms.base import DiscoveryNode
from ..sim.messages import Message
from .config import SubLogConfig
from .phases import (
    STEP_ASSIGN,
    STEP_DECIDE,
    STEP_FORWARD,
    STEP_INVITE,
    STEP_REPORT,
    phase_of,
    step_of,
)

#: (leader id, cluster size, coin) describing one received invitation.
Invite = Tuple[int, int, bool]


class SubLogNode(DiscoveryNode):
    """One machine running SubLogDiscovery.

    Args:
        node_id: This machine's identifier.
        config: Algorithm parameters; defaults reproduce the headline
            variant (deterministic rank contraction with join-forwarding,
            full delegation).
    """

    def __init__(self, node_id: int, config: Optional[SubLogConfig] = None) -> None:
        super().__init__(node_id)
        self.config = config or SubLogConfig()
        # Cluster membership.
        self.leader = node_id
        self.roster: Set[int] = {node_id}
        self.pool: Set[int] = set()
        # Per-phase working state.
        self.coin = False
        self.invites: Dict[int, Tuple[int, bool]] = {}
        self.joining_to: Optional[int] = None
        self._assigned: List[int] = []
        self._assign_meta: Tuple[int, int, bool] = (node_id, 1, False)
        self._pending_invites: List[Invite] = []
        # Contact bookkeeping.
        self._unreported: Set[int] = set()
        self._contacts: Set[int] = set()
        # Completion / liveness bookkeeping.
        self._last_broadcast = 1
        self._watchdog_misses = 0
        self._saw_assign = False
        self._round = 0
        self._roster_at_last_assign = 1
        self._stagnant_phases = 0

    # -- identity helpers -----------------------------------------------------------

    @property
    def is_leader(self) -> bool:
        return self.leader == self.node_id

    @property
    def cluster_size(self) -> int:
        """Roster size (meaningful for leaders; 1 for plain members)."""
        return len(self.roster)

    # -- lifecycle --------------------------------------------------------------------

    def setup(self) -> None:
        contacts = set(self.known - {self.node_id})
        self._unreported = set(contacts)
        self._contacts = set(contacts)

    def absorb(self, message: Message) -> None:
        """Track the ids an invite teaches as reportable.

        The host calls this before it teaches the message, so
        ``self.known`` still holds the knowledge from before it.  Only
        ``invite`` messages teach a member ids its leader might not have
        (the inviter and its leader); everything else flows through
        leader-aware paths, so tracking it would only duplicate pointers.
        """
        if message.kind == "invite":
            for learned in (message.sender, *message.ids):
                if learned not in self.known and learned != self.node_id:
                    self._unreported.add(learned)
                    self._contacts.add(learned)

    # -- round dispatch ------------------------------------------------------------------

    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> None:
        self._round = round_no
        for message in inbox:
            self._handle(message)
        step = step_of(round_no)
        if step == STEP_REPORT:
            self._step_report()
        elif step == STEP_ASSIGN:
            self._step_assign()
        elif step == STEP_INVITE:
            self._step_invite()
        elif step == STEP_FORWARD:
            self._step_forward()
        elif step == STEP_DECIDE:
            self._step_decide()
        # STEP_ABSORB needs no proactive action: joins are handled by the
        # generic message handler as they arrive.

    # -- message handlers -------------------------------------------------------------------

    def _handle(self, message: Message) -> None:
        kind = message.kind
        if kind == "report":
            self._handle_report(message)
        elif kind == "assign":
            self._handle_assign(message)
        elif kind == "invite":
            self._handle_invite(message)
        elif kind == "fwd":
            self._handle_fwd(message)
        elif kind == "join":
            self._handle_join(message)
        elif kind == "welcome":
            self._handle_welcome(message)
        # "roster" needs no handler: absorbing its ids is the whole point.

    def _handle_report(self, message: Message) -> None:
        if self.is_leader:
            self.pool.update(set(message.ids) - self.roster)
            return
        # Stale member: relay upward and correct the sender's pointer.
        if message.ids:
            self.send(self.leader, "report", ids=message.ids)
        self.send(message.sender, "welcome", ids=(self.leader,))

    def _handle_assign(self, message: Message) -> None:
        # An assign is authoritative: the sender's roster includes us.
        # (Heals members whose welcome was lost.)
        self._become_member_of(message.sender)
        size, coin = message.data
        self._assigned.extend(message.ids)
        self._assign_meta = (message.sender, size, coin)
        self._saw_assign = True

    def _handle_invite(self, message: Message) -> None:
        inviter_leader = next(iter(message.ids))
        if inviter_leader in (self.node_id, self.leader):
            return  # intra-cluster invite from a stale pool entry
        size, coin = message.data
        self._pending_invites.append((inviter_leader, size, coin))

    def _handle_fwd(self, message: Message) -> None:
        entries = list(zip(message.ids, message.data))
        if self.is_leader:
            for inviter_leader, (size, coin) in entries:
                self._absorb_invite(inviter_leader, size, coin)
            return
        self.send(self.leader, "fwd", ids=message.ids, data=message.data)
        self.send(message.sender, "welcome", ids=(self.leader,))

    def _handle_join(self, message: Message) -> None:
        if not self.is_leader:
            self.send(self.leader, "join", ids=message.ids, data=message.data)
            return
        if self.joining_to is not None:
            # We are mid-join ourselves ("rank" chains): pass it upstream;
            # the eventual absorber welcomes the whole forwarded roster.
            self.send(self.joining_to, "join", ids=message.ids, data=message.data)
            return
        roster_size = message.data[0]
        ids = tuple(message.ids)
        joiner_roster = ids[:roster_size]
        joiner_pool = ids[roster_size:]
        new_members = set(joiner_roster) - self.roster
        self.roster.update(new_members)
        self.pool.update(joiner_pool)
        self.pool -= self.roster
        for member in sorted(new_members):
            self.send(member, "welcome", ids=(self.node_id,))

    def _handle_welcome(self, message: Message) -> None:
        new_leader = next(iter(message.ids))
        if new_leader == self.node_id:
            return
        if (
            self.is_leader
            and self.joining_to is None
            and (len(self.roster) > 1 or self.pool)
        ):
            # Unsolicited absorption (healing path): hand over our cluster.
            self._send_join(new_leader)
        self._become_member_of(new_leader)

    # -- phase steps --------------------------------------------------------------------------

    def _step_report(self) -> None:
        if self.is_leader:
            self.pool.update(self._unreported - self.roster)
            self._unreported.clear()
            return
        source = self._contacts if self.config.resilient else self._unreported
        payload = tuple(sorted(source - {self.node_id, self.leader}))
        self.send(self.leader, "report", ids=payload)
        self._unreported.clear()

    def _step_assign(self) -> None:
        if not self.is_leader:
            return
        self.pool -= self.roster
        others = sorted(self.roster - {self.node_id})
        size = len(self.roster)

        # Flip the phase coin regardless of pool state: a cluster with an
        # empty pool can still be invited, and must know whether it is a
        # head or a tail when it decides.
        if self.config.contraction == "coin":
            self.coin = self.rng.random() < 0.5
        else:
            self.coin = False

        if len(self.roster) > self._roster_at_last_assign:
            self._stagnant_phases = 0
        else:
            self._stagnant_phases += 1
        self._roster_at_last_assign = len(self.roster)

        if not self.pool:
            self._maybe_broadcast_roster()
            for member in others:  # empty heartbeat keeps watchdogs quiet
                self.send(member, "assign", ids=(), data=(size, self.coin))
            self._assigned = []
            return

        # Crash-fault escape hatch: dead machines' ids never leave the
        # pool (they answer no invites), which would suppress the
        # completion broadcast forever.  After enough progress-free phases
        # with a non-empty pool, broadcast anyway.
        stagnation = self.config.stagnation_phases
        if stagnation is not None and self._stagnant_phases >= stagnation:
            self._maybe_broadcast_roster()

        workers = sorted(self.roster) if self.config.delegation else [self.node_id]
        targets = sorted(self.pool)
        self.rng.shuffle(targets)
        if self.config.spread_limit is not None:
            targets = targets[: self.config.spread_limit * len(workers)]
        # Pool entries are intentionally NOT consumed: a candidate is
        # re-invited every phase until its cluster merges with ours (the
        # roster dedupe above retires it).  Keeping both directions of
        # every cluster edge live each phase is what makes the endgame
        # geometric — with consumption, a failed coin flip puts the edge
        # to sleep and stragglers linger for Θ(1/p) extra phases.

        assignment: Dict[int, List[int]] = {worker: [] for worker in workers}
        for index, target in enumerate(targets):
            assignment[workers[index % len(workers)]].append(target)

        for member in others:
            self.send(
                member,
                "assign",
                ids=tuple(assignment.get(member, ())),
                data=(size, self.coin),
            )
        self._assigned = assignment.get(self.node_id, [])
        self._assign_meta = (self.node_id, size, self.coin)

    def _step_invite(self) -> None:
        self._run_watchdog()
        if not self._assigned:
            return
        cluster_leader, size, coin = self._assign_meta
        for target in self._assigned:
            if target in (self.node_id, cluster_leader):
                continue
            self.send(target, "invite", ids=(cluster_leader,), data=(size, coin))
        self._assigned = []

    def _step_forward(self) -> None:
        if not self._pending_invites:
            return
        if self.is_leader:
            for inviter_leader, size, coin in self._pending_invites:
                self._absorb_invite(inviter_leader, size, coin)
        else:
            ids = tuple(entry[0] for entry in self._pending_invites)
            data = tuple((entry[1], entry[2]) for entry in self._pending_invites)
            self.send(self.leader, "fwd", ids=ids, data=data)
        self._pending_invites = []

    def _step_decide(self) -> None:
        if not self.is_leader:
            self.invites = {}
            return
        self.joining_to = None  # a join from a previous phase was lost; retry
        invites = {
            inviter: info
            for inviter, info in self.invites.items()
            if inviter not in self.roster
        }
        self.invites = {}
        if not invites:
            return

        winner: Optional[int] = None
        if self.config.contraction == "coin":
            if not self.coin:  # we are a tail; join the best head
                heads = {
                    inviter: info for inviter, info in invites.items() if info[1]
                }
                if heads:
                    winner = max(heads, key=lambda lid: (heads[lid][0], lid))
        else:  # "rank": strictly smaller (size, id) joins strictly larger
            best = max(invites, key=lambda lid: (invites[lid][0], lid))
            if (invites[best][0], best) > (len(self.roster), self.node_id):
                winner = best

        if winner is not None:
            self._send_join(winner)
            self.joining_to = winner

    # -- internals ------------------------------------------------------------------------------

    def _absorb_invite(self, inviter_leader: int, size: int, coin: bool) -> None:
        if inviter_leader in self.roster or inviter_leader == self.node_id:
            return
        existing = self.invites.get(inviter_leader)
        if existing is None or size > existing[0]:
            self.invites[inviter_leader] = (size, coin)
        self.pool.add(inviter_leader)

    def _send_join(self, target: int) -> None:
        roster_ids = tuple(sorted(self.roster))
        pool_ids = tuple(sorted(self.pool - self.roster - {target}))
        self.send(target, "join", ids=roster_ids + pool_ids, data=(len(roster_ids),))

    def _become_member_of(self, new_leader: int) -> None:
        if new_leader == self.node_id or new_leader == self.leader:
            self.leader = new_leader
            return
        if self.pool:
            # Residual pool knowledge (normally already transferred via a
            # join) is folded back into the reportable contacts so nothing
            # the cluster learned can be lost on a leadership change.
            leftovers = self.pool - {self.node_id, new_leader}
            self._unreported.update(leftovers)
            self._contacts.update(leftovers)
        self.leader = new_leader
        self.roster = {self.node_id}
        self.pool = set()
        self.invites = {}
        self.joining_to = None
        self._assigned = []
        self._last_broadcast = 1
        self._roster_at_last_assign = 1
        self._stagnant_phases = 0

    def _maybe_broadcast_roster(self) -> None:
        if self.config.completion != "broadcast":
            return
        # In resilient mode a broadcast may have been lost in transit, so
        # repeat it every eligible phase (the engine stops the run as soon
        # as the goal holds, bounding the repeats).  Otherwise broadcast
        # only when the roster grew since the last one.
        if not self.config.resilient and len(self.roster) <= self._last_broadcast:
            return
        if len(self.roster) <= 1:
            return
        # Each member gets the roster minus itself, in ascending order.
        # On the simulator that is one n-bit value per member, against
        # 8 B per pointer for a tuple and 64 B for a frozenset.
        roster = self.id_set(self.roster)
        for member in sorted(self.roster):
            if member != self.node_id:
                self.send(member, "roster", ids=roster - {member})
        self._last_broadcast = len(self.roster)

    def _run_watchdog(self) -> None:
        limit = self.config.watchdog_phases
        if limit is None or self.is_leader:
            self._saw_assign = False
            return
        if self._saw_assign:
            self._watchdog_misses = 0
        else:
            self._watchdog_misses += 1
            if self._watchdog_misses >= limit:
                self._revert_to_singleton()
        self._saw_assign = False

    def _revert_to_singleton(self) -> None:
        """Crash recovery: lead ourselves again, seeded with all we know."""
        self.leader = self.node_id
        self.roster = {self.node_id}
        self.pool = set(self.known - {self.node_id})
        self.invites = {}
        self.joining_to = None
        self._assigned = []
        self._watchdog_misses = 0
        self._last_broadcast = 0
        self._roster_at_last_assign = 0
        self._stagnant_phases = 0

    # -- introspection (observers, tests) --------------------------------------

    def cluster_view(self) -> Dict[str, object]:
        """Snapshot of the cluster state for observers and debugging."""
        return {
            "leader": self.leader,
            "is_leader": self.is_leader,
            "roster_size": len(self.roster) if self.is_leader else None,
            "pool_size": len(self.pool) if self.is_leader else None,
            "phase": phase_of(self._round) if self._round else 0,
        }
