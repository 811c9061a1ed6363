"""Unit tests for the record-and-replay benchmark kernels."""

from __future__ import annotations

import pytest

from repro.algorithms.registry import get_algorithm
from repro.bench.replay import RecordedRun, record_run, replay_engine
from repro.graphs import make_topology
from repro.sim import BACKENDS


@pytest.fixture(scope="module")
def recorded() -> RecordedRun:
    graph = make_topology("kout", 24, seed=3, k=3)
    spec = get_algorithm("namedropper")
    return record_run(
        graph,
        spec.node_factory(),
        seed=11,
        snapshot_rounds=(2, 4),
        max_rounds=spec.round_cap(24),
    )


class TestRecordRun:
    def test_recording_completes_and_snapshots(self, recorded):
        assert recorded.result.completed
        assert recorded.rounds > 4
        assert set(recorded.snapshots) == {2, 4}
        assert recorded.schedule  # at least one non-empty outbox

    def test_window_validates_bounds(self, recorded):
        assert recorded.window(1) == recorded.rounds
        assert recorded.window(3) == recorded.rounds - 2
        with pytest.raises(ValueError):
            recorded.window(0)
        with pytest.raises(ValueError):
            recorded.window(recorded.rounds + 1)

    def test_window_requires_snapshot(self, recorded):
        # Round 4 start needs a snapshot at round 3, which was not taken.
        with pytest.raises(ValueError, match="no knowledge snapshot"):
            recorded.window(4)


class TestReplay:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_full_replay_reproduces_the_run(self, recorded, backend):
        engine = replay_engine(recorded, backend=backend, force=True)
        for _ in range(recorded.rounds):
            engine.step()
        assert engine.is_strongly_complete()
        assert engine.round_no == recorded.result.rounds
        assert engine.metrics.total_messages == recorded.result.messages
        assert engine.metrics.total_pointers == recorded.result.pointers

    def test_partial_replay_matches_full_tail(self, recorded):
        start = 5
        legacy = replay_engine(recorded, start_round=start, backend="legacy")
        fast = replay_engine(
            recorded, start_round=start, backend="fast", force=True
        )
        for _ in range(recorded.window(start)):
            legacy.step()
            fast.step()
        assert dict(legacy.knowledge) == dict(fast.knowledge)
        assert legacy.is_strongly_complete() and fast.is_strongly_complete()
        # The tail's traffic is the recorded total minus the skipped rounds.
        skipped = sum(
            stats.pointers
            for stats in recorded.result.round_stats[: start - 1]
        )
        expected = recorded.result.pointers - skipped
        assert legacy.metrics.total_pointers == expected
        assert fast.metrics.total_pointers == expected


class TestBackendRefusal:
    """Recordings carry their backend; cross-backend replay needs force."""

    def test_recording_captures_backend(self, recorded):
        assert recorded.backend == "legacy"

    def test_same_backend_replays_without_force(self, recorded):
        engine = replay_engine(recorded, backend="legacy")
        assert engine.backend == "legacy"

    @pytest.mark.parametrize("backend", ["fast"])
    def test_cross_backend_refused_without_force(self, recorded, backend):
        with pytest.raises(ValueError, match="force"):
            replay_engine(recorded, backend=backend)

    def test_force_allows_cross_backend(self, recorded):
        engine = replay_engine(recorded, backend="fast", force=True)
        assert engine.backend == "fast"
