"""Live fault injection against the simulator's prediction.

The acceptance test of the robustness subsystem: a live cluster with a
node killed mid-run must not hang, must reach survivor closure within
the marker deadlines, and must reduce to exactly the knowledge digest a
:class:`~repro.sim.engine.SynchronousEngine` +
:class:`~repro.sim.faults.FaultInjector` run predicts for the same
``(topology, algorithm, seed, fault plan)``.  Every scenario is wrapped
in a hard wall-clock guard so a reintroduced hang-forever bug fails the
test instead of wedging the suite.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live.cluster import ClusterSpec, LiveCluster, reference_digest, run_cluster
from repro.live.node import PEER_DEAD, default_marker_timeout
from repro.live.wire import encode_frame, read_frame
from repro.sim.faults import parse_kill_specs

#: The paper's headline algorithm needs its loss-hardening to heal
#: around a crash (the plain assignment structure does not reroute).
RESILIENT = {"resilient": True, "stagnation_phases": 4}


def _run(spec: ClusterSpec, timeout: float = 60.0):
    async def guarded():
        return await asyncio.wait_for(run_cluster(spec), timeout)

    return asyncio.run(guarded())


class TestDifferential:
    def test_kill_one_node_mid_run_matches_sim(self):
        spec = ClusterSpec(
            n=8,
            algorithm="sublog",
            seed=7,
            params=RESILIENT,
            crash_rounds={3: 3},
            marker_timeout=0.5,
        )
        report = _run(spec)
        expected, sim_rounds = reference_digest(spec)
        assert report.crashed == (3,)
        assert report.survivors == (0, 1, 2, 4, 5, 6, 7)
        assert report.complete
        assert report.digest == expected
        assert sim_rounds <= report.rounds <= sim_rounds + 2

    def test_namedropper_kill_matches_sim(self):
        spec = ClusterSpec(
            n=8, algorithm="namedropper", seed=11, crash_rounds={2: 2}, marker_timeout=0.5
        )
        report = _run(spec)
        expected, sim_rounds = reference_digest(spec)
        assert report.complete
        assert report.digest == expected
        assert sim_rounds <= report.rounds <= sim_rounds + 2

    def test_two_kills_match_sim(self):
        spec = ClusterSpec(
            n=8, algorithm="rpj", seed=5, crash_rounds={1: 2, 6: 3}, marker_timeout=0.5
        )
        report = _run(spec)
        expected, sim_rounds = reference_digest(spec)
        assert report.crashed == (1, 6)
        assert report.complete
        assert report.digest == expected
        assert sim_rounds <= report.rounds <= sim_rounds + 2

    def test_crashed_node_freezes_at_sim_boundary(self):
        """Both hosts freeze the victim after round R-1, so even the
        full-fleet digest (frozen victim included) is identical."""

        spec = ClusterSpec(
            n=8, algorithm="flooding", seed=7, crash_rounds={3: 3}, marker_timeout=0.5
        )

        async def scenario():
            cluster = LiveCluster(spec)
            await cluster.start()
            try:
                await asyncio.wait_for(cluster.run_discovery(), 60)
                victim = cluster.nodes[3]
                assert victim.crashed_at == 3
                assert victim.rounds_run == 2
                return cluster.digest(survivors_only=False)
            finally:
                await cluster.close()

        from repro.sim.engine import SynchronousEngine

        full_digest = asyncio.run(scenario())
        engine = SynchronousEngine(
            spec.build_graph(),
            spec.node_factory(),
            seed=7,
            algorithm_name="flooding",
            fault_plan=spec.fault_plan(),
        )
        engine.run(max_rounds=spec.round_budget())
        assert full_digest == engine.knowledge_digest()


class TestFailureDetector:
    def test_survivors_mark_victim_dead_in_status(self):
        async def scenario():
            spec = ClusterSpec(
                n=6, algorithm="flooding", seed=3, crash_rounds={2: 2}, marker_timeout=0.5
            )
            cluster = LiveCluster(spec)
            await cluster.start()
            try:
                await asyncio.wait_for(cluster.run_discovery(), 60)
                survivor = cluster.nodes[0]
                host, port = survivor.host, survivor.port
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame({"t": "status"}))
                await writer.drain()
                status = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return survivor.peer_state(2), status
            finally:
                await cluster.close()

        state, status = asyncio.run(scenario())
        assert state == PEER_DEAD
        assert status["peers"]["2"] == PEER_DEAD
        assert status["crashed_at"] is None
        assert "2" in status["dead_reasons"]

    def test_default_marker_timeout_bounds(self):
        assert default_marker_timeout(1) == 10.0
        assert default_marker_timeout(100) == 25.0
        assert default_marker_timeout(10_000) == 60.0


class TestRestart:
    def test_restarted_victim_serves_frozen_knowledge(self):
        async def scenario():
            spec = ClusterSpec(
                n=6,
                algorithm="flooding",
                seed=3,
                crash_rounds={2: 2},
                restart=(2,),
                marker_timeout=0.5,
            )
            cluster = LiveCluster(spec)
            await cluster.start()
            try:
                report = await asyncio.wait_for(cluster.run_discovery(), 60)
                victim = cluster.nodes[2]
                assert victim.restarted
                reader, writer = await asyncio.open_connection(
                    victim.host, victim.port
                )
                writer.write(encode_frame({"t": "status"}))
                await writer.drain()
                status = await read_frame(reader)
                writer.write(encode_frame({"t": "known"}))
                await writer.drain()
                known = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                return report, status, known, set(victim.protocol.known)
            finally:
                await cluster.close()

        report, status, known, frozen = asyncio.run(scenario())
        assert report.crashed == (2,)
        assert status["crashed_at"] == 2
        assert status["restarted"] is True
        # Frozen pre-crash knowledge, not the survivors' closure state.
        assert set(known["ids"]) == frozen

    def test_restart_skips_a_kill_that_never_fired(self):
        """A kill scheduled past the run's last round never fires, as in
        the simulator, so there is no endpoint to revive."""

        async def scenario():
            spec = ClusterSpec(
                n=8, algorithm="flooding", seed=7, crash_rounds={3: 50}, restart=(3,)
            )
            cluster = LiveCluster(spec)
            await cluster.start()
            try:
                report = await asyncio.wait_for(cluster.run_discovery(), 60)
                return spec, report, cluster.nodes[3]
            finally:
                await cluster.close()

        spec, report, node = asyncio.run(scenario())
        assert report.crashed == ()
        assert report.complete
        assert node.crashed_at is None and not node.restarted
        assert report.digest == reference_digest(spec)[0]

    def test_restart_service_requires_a_crash(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=2, algorithm="flooding", seed=0))
            await cluster.start()
            try:
                with pytest.raises(RuntimeError):
                    await cluster.nodes[0].restart_service()
            finally:
                await cluster.close()

        asyncio.run(scenario())


class TestPlans:
    def test_parse_kill_specs(self):
        assert parse_kill_specs(["3@5", "1@2,6@4"]) == {3: 5, 1: 2, 6: 4}
        assert parse_kill_specs([]) == {}

    @pytest.mark.parametrize("spec", ["3", "3@", "@5", "3@x", "3@0"])
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_kill_specs([spec])

    def test_parse_rejects_double_kill(self):
        with pytest.raises(ValueError):
            parse_kill_specs(["3@5", "3@6"])

    def test_plan_rejects_restart_of_unkilled_node(self):
        with pytest.raises(ValueError):
            ClusterSpec(crash_rounds={3: 5}, restart=(4,))

    def test_spec_rejects_crash_round_below_one(self):
        with pytest.raises(ValueError):
            ClusterSpec(crash_rounds={3: 0})

    def test_cluster_rejects_plan_for_unknown_node(self):
        with pytest.raises(ValueError):
            LiveCluster(
                ClusterSpec(
                    n=4,
                    algorithm="flooding",
                    seed=0,
                    crash_rounds={99: 2},
                )
            )

    def test_report_without_faults_covers_whole_fleet(self):
        spec = ClusterSpec(n=4, algorithm="flooding", seed=0)
        report = _run(spec)
        assert report.survivors == (0, 1, 2, 3)
        assert report.crashed == ()
        expected, _ = reference_digest(spec)
        assert report.digest == expected
