"""Step-level unit tests for SubLogNode's handlers and healing paths.

These drive a single node directly with crafted messages, pinning down
the behaviors the integration suite can only observe statistically:
forwarding chains, corrective welcomes, authoritative assigns, watchdog
reversion, and the contraction rule's decision table.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.config import SubLogConfig
from repro.core.phases import (
    ROUNDS_PER_PHASE,
    STEP_ASSIGN,
    STEP_DECIDE,
    STEP_FORWARD,
    STEP_INVITE,
    STEP_REPORT,
)
from repro.core.sublog import SubLogNode
from repro.sim.idset import IdSet, IdUniverse
from repro.sim.messages import Message


def make_node(node_id=1, knows=(2, 3), config=None) -> SubLogNode:
    """A node bound to a plain-set row that the test writes as its host."""
    node = SubLogNode(node_id, config=config)
    node.bind({node_id, *knows}, random.Random(0))
    return node


def deliver(node: SubLogNode, round_no: int, *messages: Message) -> List[Message]:
    """Act as the host: absorb each message, then teach its sender and
    ids, then run one round; return the outbox."""
    for message in messages:
        node.absorb(message)
        node.known.update(message.ids)
        node.known.add(message.sender)
    return node.run_round(round_no, list(messages))


def round_for(step: int, phase: int = 1) -> int:
    return (phase - 1) * ROUNDS_PER_PHASE + step + 1


class TestSetup:
    def test_initial_state_is_singleton_leader(self):
        node = make_node()
        assert node.is_leader
        assert node.roster == {1}
        assert node.pool == set()
        assert node.cluster_size == 1

    def test_initial_contacts_become_pool_at_report(self):
        node = make_node(knows=(2, 3))
        deliver(node, round_for(STEP_REPORT))
        assert node.pool == {2, 3}


class TestReportHandling:
    def test_leader_absorbs_reports_into_pool(self):
        node = make_node()
        outbox = deliver(
            node,
            round_for(STEP_ASSIGN),
            Message(kind="report", sender=2, recipient=1, ids=(7, 8)),
        )
        assert {7, 8} <= node.pool
        del outbox

    def test_stale_member_forwards_report_and_corrects_sender(self):
        node = make_node()
        node.leader = 9  # we are a plain member of 9 now
        node.known.add(9)
        outbox = deliver(
            node,
            round_for(STEP_FORWARD),
            Message(kind="report", sender=2, recipient=1, ids=(7,)),
        )
        kinds = {(m.kind, m.recipient) for m in outbox}
        assert ("report", 9) in kinds  # relayed upward
        assert ("welcome", 2) in kinds  # sender's pointer corrected
        welcome = next(m for m in outbox if m.kind == "welcome")
        assert tuple(welcome.ids) == (9,)

    def test_report_dedupes_against_roster(self):
        node = make_node()
        node.roster = {1, 7}
        deliver(
            node,
            round_for(STEP_ASSIGN),
            Message(kind="report", sender=7, recipient=1, ids=(7, 8)),
        )
        assert 7 not in node.pool
        assert 8 in node.pool


class TestAssignHandling:
    def test_assign_is_authoritative_about_leadership(self):
        node = make_node()
        assert node.is_leader
        deliver(
            node,
            round_for(STEP_INVITE),
            Message(kind="assign", sender=5, recipient=1, ids=(8,), data=(4, True)),
        )
        assert node.leader == 5
        assert not node.is_leader

    def test_assigned_targets_are_invited_with_cluster_identity(self):
        node = make_node()
        outbox = deliver(
            node,
            round_for(STEP_INVITE),
            Message(kind="assign", sender=5, recipient=1, ids=(8, 9), data=(4, True)),
        )
        invites = [m for m in outbox if m.kind == "invite"]
        assert {m.recipient for m in invites} == {8, 9}
        for invite in invites:
            assert tuple(invite.ids) == (5,)  # the assigning leader
            assert invite.data == (4, True)  # size and coin

    def test_empty_assign_is_a_heartbeat(self):
        node = make_node()
        outbox = deliver(
            node,
            round_for(STEP_INVITE),
            Message(kind="assign", sender=5, recipient=1, ids=(), data=(4, False)),
        )
        assert not [m for m in outbox if m.kind == "invite"]


class TestCompletionBroadcast:
    def test_roster_broadcast_ships_id_set_values(self):
        # Bound as the simulator binds it: over the run's dense index.
        node = SubLogNode(1)
        node.bind({1, 2, 5, 9}, random.Random(0), IdUniverse((1, 2, 5, 9, 12)))
        node.roster = {1, 2, 5, 9}
        node.pool = set()
        outbox = deliver(node, round_for(STEP_ASSIGN))
        rosters = [m for m in outbox if m.kind == "roster"]
        assert [m.recipient for m in rosters] == [2, 5, 9]
        assert all(type(m.ids) is IdSet for m in rosters)
        # Ascending ids, the recipient left out.
        assert [list(m.ids) for m in rosters] == [[1, 5, 9], [1, 2, 9], [1, 2, 5]]
        assert [m.pointer_count for m in rosters] == [3, 3, 3]

    def test_roster_broadcast_ships_frozensets_without_a_dense_index(self):
        # The live host binds no universe.
        node = make_node(knows=(2, 5, 9))
        node.roster = {1, 2, 5, 9}
        node.pool = set()
        outbox = deliver(node, round_for(STEP_ASSIGN))
        rosters = [m for m in outbox if m.kind == "roster"]
        assert [m.recipient for m in rosters] == [2, 5, 9]
        assert [m.ids for m in rosters] == [{1, 5, 9}, {1, 2, 9}, {1, 2, 5}]
        assert all(type(m.ids) is frozenset for m in rosters)


class TestInviteFlow:
    def test_member_forwards_invites_to_leader(self):
        node = make_node()
        node.leader = 9
        node.known.add(9)
        deliver(
            node,
            round_for(STEP_INVITE),
            Message(kind="invite", sender=4, recipient=1, ids=(40,), data=(6, True)),
        )
        outbox = deliver(node, round_for(STEP_FORWARD))
        forwards = [m for m in outbox if m.kind == "fwd"]
        assert len(forwards) == 1
        assert forwards[0].recipient == 9
        assert tuple(forwards[0].ids) == (40,)
        assert forwards[0].data == ((6, True),)

    def test_intra_cluster_invites_are_dropped(self):
        node = make_node()
        node.leader = 9
        node.known.add(9)
        deliver(
            node,
            round_for(STEP_INVITE),
            Message(kind="invite", sender=4, recipient=1, ids=(9,), data=(6, True)),
        )
        outbox = deliver(node, round_for(STEP_FORWARD))
        assert not [m for m in outbox if m.kind == "fwd"]

    def test_leader_absorbs_forwarded_invites_into_pool(self):
        node = make_node()
        deliver(
            node,
            round_for(STEP_DECIDE),
            Message(
                kind="fwd", sender=2, recipient=1, ids=(40, 41),
                data=((6, True), (2, False)),
            ),
        )
        assert {40, 41} <= node.pool


class TestDecideRankRule:
    def _invite(self, inviter: int, size: int) -> Message:
        return Message(
            kind="fwd", sender=2, recipient=1, ids=(inviter,), data=((size, False),)
        )

    def test_joins_strictly_larger_inviter(self):
        node = make_node()  # size 1, id 1
        outbox = deliver(node, round_for(STEP_DECIDE), self._invite(40, 5))
        joins = [m for m in outbox if m.kind == "join"]
        assert len(joins) == 1
        assert joins[0].recipient == 40
        assert node.joining_to == 40

    def test_refuses_smaller_inviter(self):
        node = make_node()
        node.roster = {1, 2, 3}  # size 3
        node.known.update({2, 3})
        outbox = deliver(node, round_for(STEP_DECIDE), self._invite(40, 2))
        assert not [m for m in outbox if m.kind == "join"]
        assert 40 in node.pool  # edge preserved for later phases

    def test_equal_size_breaks_ties_by_id(self):
        node = make_node(node_id=50)
        outbox = deliver(node, round_for(STEP_DECIDE), self._invite(40, 1))
        # inviter id 40 < our id 50 at equal size: we stay.
        assert not [m for m in outbox if m.kind == "join"]

    def test_picks_largest_among_inviters(self):
        node = make_node()
        outbox = deliver(
            node,
            round_for(STEP_DECIDE),
            self._invite(40, 5),
            self._invite(41, 9),
        )
        joins = [m for m in outbox if m.kind == "join"]
        assert joins[0].recipient == 41

    def test_join_carries_roster_then_pool(self):
        node = make_node()
        node.roster = {1, 2}
        node.known.update({2})
        node.pool = {7}
        node.known.add(7)
        outbox = deliver(node, round_for(STEP_DECIDE), self._invite(40, 5))
        join = next(m for m in outbox if m.kind == "join")
        roster_size = join.data[0]
        ids = tuple(join.ids)
        assert ids[:roster_size] == (1, 2)
        assert 7 in ids[roster_size:]


class TestJoinAbsorption:
    def test_leader_absorbs_and_welcomes(self):
        node = make_node()
        outbox = deliver(
            node,
            round_for(STEP_REPORT, phase=2),
            Message(kind="join", sender=5, recipient=1, ids=(5, 6, 80), data=(2,)),
        )
        assert node.roster == {1, 5, 6}
        assert 80 in node.pool
        welcomes = [m for m in outbox if m.kind == "welcome"]
        assert {m.recipient for m in welcomes} == {5, 6}
        assert all(tuple(m.ids) == (1,) for m in welcomes)

    def test_mid_join_leader_forwards_joins_upstream(self):
        node = make_node()
        node.joining_to = 99
        node.known.add(99)
        outbox = deliver(
            node,
            round_for(5, phase=1),  # the ABSORB step
            Message(kind="join", sender=5, recipient=1, ids=(5,), data=(1,)),
        )
        forwarded = [m for m in outbox if m.kind == "join"]
        assert len(forwarded) == 1
        assert forwarded[0].recipient == 99
        assert node.roster == {1}  # not absorbed locally

    def test_ex_leader_relays_joins_to_current_leader(self):
        node = make_node()
        node.leader = 9
        node.known.add(9)
        outbox = deliver(
            node,
            round_for(STEP_REPORT, phase=2),
            Message(kind="join", sender=5, recipient=1, ids=(5,), data=(1,)),
        )
        forwarded = [m for m in outbox if m.kind == "join"]
        assert forwarded and forwarded[0].recipient == 9


class TestWelcomeHealing:
    def test_normal_welcome_after_join(self):
        node = make_node()
        node.joining_to = 40
        node.known.add(40)
        deliver(
            node,
            round_for(STEP_REPORT, phase=2),
            Message(kind="welcome", sender=40, recipient=1, ids=(40,)),
        )
        assert node.leader == 40
        assert not node.is_leader
        assert node.joining_to is None

    def test_unsolicited_welcome_hands_over_cluster_state(self):
        node = make_node()
        node.roster = {1, 2}
        node.known.update({2})
        node.pool = {7}
        node.known.add(7)
        outbox = deliver(
            node,
            round_for(STEP_REPORT, phase=2),
            Message(kind="welcome", sender=40, recipient=1, ids=(40,)),
        )
        joins = [m for m in outbox if m.kind == "join"]
        assert len(joins) == 1 and joins[0].recipient == 40
        assert node.leader == 40

    def test_self_welcome_is_ignored(self):
        node = make_node()
        deliver(
            node,
            round_for(STEP_REPORT, phase=2),
            Message(kind="welcome", sender=40, recipient=1, ids=(1,)),
        )
        assert node.is_leader


class TestWatchdog:
    def test_member_reverts_after_missed_heartbeats(self):
        config = SubLogConfig(watchdog_phases=2)
        node = make_node(config=config)
        node.leader = 9
        node.known.update({9, 5})
        # Two INVITE steps pass with no assign received.
        deliver(node, round_for(STEP_INVITE, phase=1))
        assert not node.is_leader
        deliver(node, round_for(STEP_INVITE, phase=2))
        assert node.is_leader  # reverted to singleton
        assert node.pool == node.known - {1}

    def test_heartbeat_resets_the_watchdog(self):
        config = SubLogConfig(watchdog_phases=2)
        node = make_node(config=config)
        node.leader = 9
        node.known.add(9)
        deliver(node, round_for(STEP_INVITE, phase=1))
        deliver(
            node,
            round_for(STEP_INVITE, phase=2),
            Message(kind="assign", sender=9, recipient=1, ids=(), data=(3, False)),
        )
        assert not node.is_leader
        deliver(node, round_for(STEP_INVITE, phase=3))
        assert not node.is_leader  # only one consecutive miss so far

    def test_watchdog_disabled_by_default(self):
        node = make_node()
        node.leader = 9
        node.known.add(9)
        for phase in range(1, 6):
            deliver(node, round_for(STEP_INVITE, phase=phase))
        assert not node.is_leader
