"""Cross-host bit-identity: the live cluster against the simulator.

These are the acceptance tests of the host split: the same protocol
core, driven once by concurrent asyncio tasks over TCP loopback and
once by the synchronous engine, must reduce to byte-identical knowledge
digests — at closure (the ISSUE's acceptance criterion) and, more
strictly, at arbitrary mid-run round boundaries, where equality can
only hold if every round matched bit for bit.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.graphs.knowledge import digest_knowledge
from repro.live.cluster import (
    ClusterSpec,
    LiveCluster,
    reference_digest,
    run_cluster,
)
from repro.sim.engine import SynchronousEngine


def _run(spec: ClusterSpec):
    return asyncio.run(run_cluster(spec))


class TestClosureIdentity:
    @pytest.mark.parametrize(
        "algorithm",
        [
            "flooding",
            "swamping",
            "rpj",
            "namedropper",
            "sublog",
            "det_optimal",
            "chord_discover",
        ],
    )
    def test_eight_node_closure_matches_sim(self, algorithm):
        spec = ClusterSpec(n=8, topology="kout", algorithm=algorithm, seed=11)
        report = _run(spec)
        expected, sim_rounds = reference_digest(spec)
        assert report.complete
        assert report.digest == expected
        # Closure detection lags the simulator's same-round goal check
        # by construction (the marker carries entering-round state).
        assert sim_rounds <= report.rounds <= sim_rounds + 2

    def test_two_seeds_differ(self):
        first = _run(ClusterSpec(n=8, algorithm="namedropper", seed=1, rounds=2))
        second = _run(ClusterSpec(n=8, algorithm="namedropper", seed=2, rounds=2))
        assert first.digest != second.digest


class TestExactRoundIdentity:
    @pytest.mark.parametrize("rounds", [1, 3, 6])
    def test_sublog_mid_run_digest(self, rounds):
        spec = ClusterSpec(n=8, algorithm="sublog", seed=7, rounds=rounds)
        report = _run(spec)
        expected, _ = reference_digest(spec)
        assert report.rounds == rounds
        assert report.digest == expected

    def test_namedropper_mid_run_digest(self):
        spec = ClusterSpec(n=10, algorithm="namedropper", seed=4, rounds=3)
        report = _run(spec)
        expected, _ = reference_digest(spec)
        assert report.digest == expected

    @pytest.mark.parametrize("algorithm", ["det_optimal", "chord_discover"])
    @pytest.mark.parametrize("rounds", [1, 2, 4])
    def test_new_baselines_mid_run_digest(self, algorithm, rounds):
        spec = ClusterSpec(n=9, algorithm=algorithm, seed=13, rounds=rounds)
        report = _run(spec)
        expected, _ = reference_digest(spec)
        assert report.rounds == rounds
        assert report.digest == expected


class TestSendAccounting:
    @pytest.mark.parametrize("rounds", [3, 6])
    @pytest.mark.parametrize(
        "algorithm", ["sublog", "namedropper", "det_optimal", "chord_discover", "flooding"]
    )
    def test_fleet_metrics_match_engine(self, algorithm, rounds):
        """The fleet's summed send counters equal the engine's after the
        same number of rounds: every send is charged once, on one host
        as on the other."""
        spec = ClusterSpec(n=8, algorithm=algorithm, seed=7, rounds=rounds)

        async def scenario():
            cluster = LiveCluster(spec)
            await cluster.start()
            try:
                await cluster.run_discovery()
                return [runtime.context.metrics for runtime in cluster.nodes.values()]
            finally:
                await cluster.close()

        fleet = asyncio.run(scenario())
        engine = SynchronousEngine(spec.build_graph(), spec.node_factory(), seed=spec.seed)
        for _ in range(rounds):
            engine.step()
        sim = engine.metrics
        assert sum(m.total_messages for m in fleet) == sim.total_messages
        assert sum(m.total_pointers for m in fleet) == sim.total_pointers
        by_kind = sum((m.messages_by_kind for m in fleet), Counter())
        assert by_kind == sim.messages_by_kind


class TestClusterMechanics:
    def test_two_phase_start_publishes_full_directory(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=5, algorithm="flooding", seed=0))
            await cluster.start()
            try:
                ports = {port for _host, port in cluster.endpoints}
                assert len(ports) == 5  # every node bound its own port
                for runtime in cluster.nodes.values():
                    assert set(runtime._directory) == set(cluster.nodes)
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_digest_uses_shared_helper(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=4, algorithm="flooding", seed=0))
            await cluster.start()
            try:
                await cluster.run_discovery()
                assert cluster.digest() == digest_knowledge(cluster.knowledge())
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_message_metrics_accumulate(self):
        report = _run(ClusterSpec(n=6, algorithm="flooding", seed=0))
        assert report.messages > 0

    def test_single_node_cluster_closes_immediately(self):
        report = _run(ClusterSpec(n=1, topology="path", algorithm="flooding", seed=0))
        assert report.complete
        expected, _ = reference_digest(
            ClusterSpec(n=1, topology="path", algorithm="flooding", seed=0)
        )
        assert report.digest == expected
