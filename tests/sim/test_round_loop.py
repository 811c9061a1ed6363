"""The one round loop, seen from outside: every store must write the same
delivery log through the shared in-flight filter, ``profile=True`` must
report the same phase keys on every backend, and every store must skip
ids that name no machine when enforcement is off.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.algorithms.registry import get_algorithm
from repro.graphs import make_topology
from repro.sim import (
    BACKENDS,
    KnowledgeSizeObserver,
    SynchronousEngine,
    TraceObserver,
)
from repro.sim.churn import JoinPlan
from repro.sim.engine import PROFILE_PHASES
from repro.sim.faults import FaultPlan
from repro.sim.node import ProtocolNode

#: Delivery settings that exercise every branch of the in-flight filter:
#: delayed traffic with send-time loss, crashes and a late joiner; a
#: model veto; uniform delay with a crash.  ``expected`` pins the
#: (events, drops) counts the traced namedropper run logs.
LOG_CASES = {
    "jitter-loss-crash-join": dict(
        delivery="jitter:2",
        fault_plan=FaultPlan(loss_rate=0.1, crash_rounds={3: 4, 7: 6}, seed=9),
        join_plan=JoinPlan(join_rounds={11: 3}),
        expected=(694, 102),
    ),
    "partition": dict(delivery="partition:2-4", expected=(637, 83)),
    "adversarial-crash": dict(
        delivery="adversarial:2",
        fault_plan=FaultPlan(crash_rounds={5: 3}, seed=9),
        expected=(1010, 29),
    ),
}


def _run(backend, delivery, fault_plan=None, join_plan=None, traced=True):
    trace = TraceObserver(limit=10**6)
    engine = SynchronousEngine(
        make_topology("kout", 48, seed=5, k=3),
        get_algorithm("namedropper").node_factory(),
        seed=3,
        goal="strong_alive" if fault_plan else "strong",
        delivery=delivery,
        fault_plan=fault_plan,
        join_plan=join_plan,
        observers=[trace] if traced else [],
        backend=backend,
    )
    result = engine.run(max_rounds=60)
    return trace, replace(result, extra={})


@pytest.mark.parametrize("case", sorted(LOG_CASES))
def test_delivery_log_identical_on_every_store(case):
    params = dict(LOG_CASES[case])
    expected = params.pop("expected")
    runs = {backend: _run(backend, **params) for backend in BACKENDS}
    trace, result = runs["legacy"]
    assert (len(trace.events), len(trace.drops)) == expected
    assert not trace.truncated
    for backend, (other, other_result) in runs.items():
        assert other.events == trace.events, backend
        assert other.drops == trace.drops, backend
        assert other_result == result, backend
        # Without a log the filter may hand buckets over untouched, but
        # only when nothing can drop a message: the run is the same.
        assert _run(backend, traced=False, **params)[1] == result, backend


def _profiled_run(backend, profile, observers=()):
    engine = SynchronousEngine(
        make_topology("kout", 64, seed=2, k=3),
        get_algorithm("namedropper").node_factory(),
        seed=1,
        observers=observers,
        backend=backend,
        profile=profile,
    )
    return engine, engine.run()


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_times_every_phase(backend):
    engine, result = _profiled_run(backend, True, [KnowledgeSizeObserver()])
    timings = engine.phase_timings
    assert result.completed and result.messages > 0
    assert tuple(timings) == PROFILE_PHASES
    for phase in PROFILE_PHASES:
        assert timings[phase] > 0, phase
    assert result.extra["phase_timings"] == timings


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_without_observers_times_no_observers(backend):
    engine, result = _profiled_run(backend, True)
    timings = engine.phase_timings
    assert timings["observers"] == 0
    assert all(timings[phase] > 0 for phase in ("protocol", "dispatch", "deliver"))
    assert result.extra["phase_timings"] == timings


@pytest.mark.parametrize("backend", BACKENDS)
def test_profile_off_times_nothing(backend):
    engine, result = _profiled_run(backend, False, [KnowledgeSizeObserver()])
    assert engine.phase_timings == dict.fromkeys(PROFILE_PHASES, 0.0)
    assert "phase_timings" not in result.extra


class _StraySender(ProtocolNode):
    """Machine 0 sends machine 1 a payload naming no simulated machine
    next to a real id machine 1 does not know yet."""

    def on_round(self, round_no, inbox, rng):
        if self.node_id == 0 and round_no == 1:
            self.send(1, "stray", ids=(999, 2, 999))


@pytest.mark.parametrize("backend", BACKENDS)
def test_stray_ids_are_skipped_without_enforcement(backend):
    engine = SynchronousEngine(
        {0: {1, 2}, 1: set(), 2: set()},
        _StraySender,
        enforce_legality=False,
        backend=backend,
    )
    engine.step()
    assert engine.knowledge[1] == {0, 1, 2}
    reference = SynchronousEngine(
        {0: {1, 2}, 1: {0, 2}, 2: set()}, _StraySender, enforce_legality=False
    )
    assert engine.knowledge_digest() == reference.knowledge_digest()
