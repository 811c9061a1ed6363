"""Behavioral tests for the core sub-logarithmic algorithm."""

from __future__ import annotations

import math
import statistics

import pytest

import repro
from repro.analysis.invariants import BallContainmentObserver
from repro.core import ClusterSizeObserver, ROUNDS_PER_PHASE, SubLogNode
from repro.graphs import make_topology
from repro.oracle import InvariantOracle
from repro.sim import SynchronousEngine


class TestBasicCompletion:
    def test_two_nodes_one_edge(self):
        result = repro.discover({0: {1}, 1: set()}, algorithm="sublog")
        assert result.completed
        # The invite of phase 1 (round 3) already completes knowledge.
        assert result.rounds <= ROUNDS_PER_PHASE

    def test_singleton(self):
        result = repro.discover({0: set()}, algorithm="sublog")
        assert result.completed
        assert result.rounds == 0
        assert result.messages == 0

    @pytest.mark.parametrize("topo", ("path", "star_in", "kout", "clustered"))
    def test_completes_with_legality_enforced(self, topo: str):
        graph = make_topology(topo, 48, seed=8)
        result = repro.discover(
            graph, algorithm="sublog", seed=8, enforce_legality=True
        )
        assert result.completed


class TestHeadlineComplexity:
    def test_sublogarithmic_plateau_on_kout(self):
        """The core claim: rounds barely grow from n=64 to n=1024.

        log2 n doubles (6 -> 10) over this range; a logarithmic algorithm
        would grow ~67%.  The sub-logarithmic algorithm must grow by at
        most two phases.
        """
        medians = {}
        for n in (64, 1024):
            rounds = [
                repro.discover(
                    make_topology("kout", n, seed=seed, k=3),
                    algorithm="sublog",
                    seed=seed,
                ).rounds
                for seed in (1, 2, 3)
            ]
            medians[n] = statistics.median(rounds)
        assert medians[1024] <= medians[64] + 2 * ROUNDS_PER_PHASE

    def test_beats_namedropper_pointer_complexity(self):
        graph = make_topology("kout", 256, seed=4, k=3)
        sublog = repro.discover(graph, algorithm="sublog", seed=4)
        namedropper = repro.discover(graph, algorithm="namedropper", seed=4)
        assert sublog.pointers < namedropper.pointers / 3

    def test_message_complexity_near_linear(self):
        # O(n) messages per phase, O(log log n) phases: messages/n must
        # stay modest and grow sub-linearly.
        per_node = {}
        for n in (128, 512):
            graph = make_topology("kout", n, seed=2, k=3)
            result = repro.discover(graph, algorithm="sublog", seed=2)
            per_node[n] = result.messages / n
        assert per_node[512] < 60
        assert per_node[512] < per_node[128] * 3

    def test_respects_lower_bound_on_path(self):
        # Ball containment: no algorithm beats ceil(log2 D) rounds.
        graph = make_topology("path", 128)
        result = repro.discover(graph, algorithm="sublog", seed=1)
        assert result.completed
        assert result.rounds >= math.ceil(math.log2(127))


class TestInvariants:
    def test_ball_containment_holds(self):
        graph = make_topology("kout", 48, seed=3, k=3)
        observer = BallContainmentObserver(graph, strict=True)
        result = repro.discover(
            graph,
            algorithm="sublog",
            seed=3,
            observers=[observer],
            enforce_legality=True,
        )
        assert result.completed
        assert not observer.violations

    def test_monotonicity_holds(self):
        # The oracle's catalog includes monotonicity: knowledge never shrinks.
        graph = make_topology("clustered", 48, seed=3)
        oracle = InvariantOracle(strict=True)
        result = repro.discover(graph, algorithm="sublog", seed=3, observers=[oracle])
        assert result.completed
        assert oracle.rounds_checked == result.rounds
        assert not oracle.violations

    def test_view_matches_ground_truth(self):
        graph = make_topology("kout", 40, seed=5, k=3)
        spec = repro.get_algorithm("sublog")
        engine = SynchronousEngine(graph, spec.node_factory(), seed=5)
        result = engine.run(max_rounds=400)
        assert result.completed
        assert all(engine.nodes[node].known is engine.knowledge[node] for node in engine.node_ids)


class TestClusterMechanics:
    def test_cluster_count_collapses_doubly_exponentially(self):
        graph = make_topology("kout", 512, seed=6, k=3)
        observer = ClusterSizeObserver()
        result = repro.discover(graph, algorithm="sublog", seed=6, observers=[observer])
        assert result.completed
        counts = [entry["clusters"] for entry in observer.history if entry["phase"] >= 1]
        # After two merging phases (phase 1 bootstraps reporting), the
        # cluster count must have collapsed by far more than halving-per-
        # phase could achieve: 512 -> fewer than 64 by phase 3.
        by_phase = {entry["phase"]: entry["clusters"] for entry in observer.history}
        third = by_phase.get(3)
        if third is not None:
            assert third < 64
        assert counts[-1] == 1 or result.completed

    def test_exactly_one_leader_at_completion(self):
        graph = make_topology("kout", 64, seed=7, k=3)
        spec = repro.get_algorithm("sublog")
        engine = SynchronousEngine(graph, spec.node_factory(), seed=7)
        engine.run(max_rounds=400)
        leaders = [
            node
            for node in engine.nodes.values()
            if isinstance(node, SubLogNode) and node.is_leader
        ]
        assert len(leaders) == 1
        assert len(leaders[0].roster) == 64

    def test_members_point_at_the_final_leader(self):
        graph = make_topology("kout", 48, seed=9, k=3)
        spec = repro.get_algorithm("sublog")
        engine = SynchronousEngine(graph, spec.node_factory(), seed=9)
        engine.run(max_rounds=400)
        leader = next(
            node.node_id for node in engine.nodes.values() if node.is_leader
        )
        # Leader pointers may lag by an in-flight welcome, but at quiesce
        # (run stopped at completion) the vast majority must point home.
        pointing_home = sum(
            1 for node in engine.nodes.values() if node.leader == leader
        )
        assert pointing_home >= 46

    def test_message_kinds_are_the_documented_protocol(self):
        graph = make_topology("kout", 48, seed=2, k=3)
        result = repro.discover(graph, algorithm="sublog", seed=2)
        expected = {"report", "assign", "invite", "fwd", "join", "welcome", "roster"}
        assert set(result.messages_by_kind) <= expected
        for kind in ("report", "assign", "invite", "join", "welcome", "roster"):
            assert result.messages_by_kind.get(kind, 0) > 0, kind


class TestVariants:
    def test_coin_contraction_completes_but_slower(self):
        graph = make_topology("kout", 256, seed=3, k=3)
        rank = repro.discover(graph, algorithm="sublog", seed=3)
        coin = repro.discover(graph, algorithm="sublogcoin", seed=3)
        assert rank.completed and coin.completed
        assert coin.rounds > rank.rounds

    def test_no_delegation_still_completes(self):
        graph = make_topology("kout", 96, seed=4, k=3)
        result = repro.discover(graph, algorithm="sublog", seed=4, delegation=False)
        assert result.completed

    def test_spread_limit_one_completes(self):
        graph = make_topology("kout", 96, seed=4, k=3)
        result = repro.discover(graph, algorithm="sublog", seed=4, spread_limit=1)
        assert result.completed

    def test_weak_goal_without_broadcast(self):
        graph = make_topology("kout", 96, seed=5, k=3)
        weak = repro.discover(
            graph, algorithm="sublog", seed=5, goal="weak", completion="none"
        )
        strong = repro.discover(graph, algorithm="sublog", seed=5)
        assert weak.completed
        # Skipping the roster broadcast must strip the Θ(n²) pointer tail.
        assert weak.pointers < strong.pointers / 2

    def test_weak_run_emits_no_roster_messages(self):
        graph = make_topology("kout", 64, seed=5, k=3)
        result = repro.discover(
            graph, algorithm="sublog", seed=5, goal="weak", completion="none"
        )
        assert result.messages_by_kind.get("roster", 0) == 0
