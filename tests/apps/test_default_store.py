"""The census, ring and trace-replay entry points pick the default store.

``repro.discover`` passes ``fast_path=True`` to the engine, so its runs
use the mask store.  ``leader_census`` and ``form_ring`` build their
engines through ``census.weak_discovery``, and ``TraceWorkload.run``
builds its own; both must follow the same rule, and an explicit
``backend`` still wins.
"""

from __future__ import annotations

import pytest

import repro.apps.census as census_module
import repro.workloads.driver as driver_module
from repro.apps import form_ring, leader_census
from repro.graphs import make_topology
from repro.sim.engine import SynchronousEngine
from repro.workloads import make_workload, run_trace_workload


@pytest.fixture
def backends(monkeypatch):
    """The store of every engine the two modules build, in order."""
    built = []

    class RecordingEngine(SynchronousEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.backend)

    for module in (census_module, driver_module):
        monkeypatch.setattr(module, "SynchronousEngine", RecordingEngine)
    return built


def test_leader_census_runs_on_the_mask_store(backends):
    census = leader_census(make_topology("kout", 24, seed=1, k=3), seed=1)
    assert census.count == 24
    assert backends == ["fast"]


def test_form_ring_runs_on_the_mask_store(backends):
    ring = form_ring(make_topology("kout", 24, seed=1, k=3), seed=1)
    assert len(ring.successors) == 24
    assert backends == ["fast"]


def test_trace_replay_runs_on_the_mask_store(backends):
    trace = make_workload("zipf", 24, seed=1, rounds=4)
    fast = run_trace_workload(trace, "sublog", seed=1, enforce_legality=False)
    legacy = run_trace_workload(
        trace, "sublog", seed=1, enforce_legality=False, backend="legacy"
    )
    assert backends == ["fast", "legacy"]
    assert fast.digest == legacy.digest
    assert fast.lookups == legacy.lookups
