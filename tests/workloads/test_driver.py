"""Trace replay through the engine: backend identity, faults, injections."""

from __future__ import annotations

import pytest

from repro.sim import BACKENDS
from repro.workloads import (
    TraceWorkload,
    fault_plan_from_trace,
    knowledge_injections,
    make_workload,
    popularity_deciles,
    run_trace_workload,
)
from repro.workloads.trace import Trace, TraceEvent


class TestMappings:
    def test_popularity_deciles_rank_by_demand(self):
        trace = Trace(
            generator="g",
            n=30,
            seed=0,
            events=tuple(
                TraceEvent(1, "lookup", 0, target)
                for target in [5] * 10 + [9] * 5 + list(range(10, 28))
            ),
        )
        deciles = popularity_deciles(trace)
        assert deciles[5] == 0  # hottest target
        assert deciles[9] <= deciles[10]
        assert max(deciles.values()) == 9

    def test_fault_plan_translates_dense_indices(self):
        trace = Trace(
            generator="g", n=4, seed=7, events=(TraceEvent(3, "crash", 1),)
        )
        plan = fault_plan_from_trace(trace, node_ids=(100, 200, 300, 400))
        assert plan.crash_rounds == {200: 3}
        assert plan.seed == 7

    def test_fault_plan_none_without_crashes(self):
        trace = make_workload("zipf", 16, seed=1, requests=8)
        assert fault_plan_from_trace(trace) is None

    def test_fault_plan_rejects_double_crash(self):
        trace = Trace(
            generator="g",
            n=4,
            seed=0,
            events=(TraceEvent(2, "crash", 1), TraceEvent(5, "crash", 1)),
        )
        with pytest.raises(ValueError, match="twice"):
            fault_plan_from_trace(trace)

    def test_injection_schedule_groups_and_sorts(self):
        trace = Trace(
            generator="g",
            n=4,
            seed=0,
            events=(
                TraceEvent(2, "edge", 1, 3),
                TraceEvent(2, "edge", 1, 0),
                TraceEvent(2, "edge", 0, 2),
                TraceEvent(4, "edge", 3, 1),
            ),
        )
        schedule = knowledge_injections(trace)
        assert list(schedule) == [2, 4]
        assert schedule[2] == [(0, (2,)), (1, (0, 3))]


class TestReplay:
    @pytest.mark.parametrize(
        "generator", ("zipf", "flash_crowd", "dynamic_graph")
    )
    def test_digest_identical_across_backends(self, generator):
        trace = make_workload(generator, 48, seed=11)
        workload = TraceWorkload(trace, "sublog", seed=11)
        reports = [workload.run(backend=backend) for backend in BACKENDS]
        digests = {report.digest for report in reports}
        assert len(digests) == 1
        assert len({r.result.rounds for r in reports}) == 1
        assert len({r.result.messages for r in reports}) == 1

    def test_crash_trace_digest_identical_across_backends(self):
        trace = make_workload(
            "correlated_failures", 48, seed=11, clusters=4, fail_fraction=0.5
        )
        workload = TraceWorkload(
            trace,
            "namedropper",
            topology="clustered",
            topology_params={"clusters": 4},
            seed=11,
            goal="strong_alive",
        )
        digests = {workload.run(backend=b).digest for b in BACKENDS}
        assert len(digests) == 1

    def test_replay_is_deterministic(self):
        trace = make_workload("zipf", 32, seed=5)
        first = run_trace_workload(trace, "namedropper", seed=5)
        second = run_trace_workload(trace, "namedropper", seed=5)
        assert first.digest == second.digest
        assert first.lookups == second.lookups

    def test_lookup_accounting_sums(self):
        trace = make_workload("zipf", 32, seed=5, requests=120)
        report = run_trace_workload(trace, "flooding", seed=5)
        stats = report.lookups
        assert stats["requests"] == 120
        assert (
            stats["served"] + stats["failed"] + stats["unserved"]
            == stats["requests"]
        )
        assert report.result.completed
        # Flooding completes, so only crashed-attach lookups could fail.
        assert stats["failed"] == 0

    def test_lookups_on_crashed_attach_fail(self):
        events = (
            TraceEvent(2, "crash", 0),
            TraceEvent(6, "lookup", 0, 3),
        )
        trace = Trace(generator="g", n=16, seed=0, events=events)
        report = run_trace_workload(
            trace, "flooding", seed=0, goal="strong_alive"
        )
        assert report.lookups["failed"] == 1

    def test_dynamic_edges_are_injected(self):
        trace = make_workload("dynamic_graph", 32, seed=2, edges_per_round=6)
        report = run_trace_workload(trace, "flooding", seed=2)
        assert report.injected_contacts > 0

    def test_trace_graph_size_mismatch_rejected(self):
        trace = make_workload("zipf", 32, seed=1)
        with pytest.raises(ValueError, match="n=32"):
            TraceWorkload(trace, "flooding", topology="kout", seed=1, graph={0: [1], 1: [0]})

    def test_include_faults_false_ignores_crashes(self):
        trace = make_workload("correlated_failures", 32, seed=3, clusters=4)
        workload = TraceWorkload(trace, "flooding", seed=3, include_faults=False)
        assert workload.fault_plan is None
        report = workload.run()
        assert report.result.completed
