"""B1 — simulator-kernel microbenchmarks.

Unlike the experiment drivers (one timed sweep each), these use
pytest-benchmark's normal statistical looping to characterize the
substrate itself: engine round throughput under the heaviest shipped
protocols, graph generation, and the metric utilities.  Regressions here
silently inflate every experiment's wall clock, so they are tracked
separately.
"""

from __future__ import annotations

import pytest

import repro
from repro.algorithms.registry import get_algorithm
from repro.bench.replay import record_run, replay_engine
from repro.graphs import make_topology
from repro.sim import BACKENDS, SynchronousEngine

N = 256
SEED = 11
STEADY_WINDOW = 5  # replayed tail rounds; see recorded_namedropper


@pytest.fixture(scope="module")
def kout_graph():
    return make_topology("kout", N, seed=SEED, k=3)


@pytest.fixture(scope="module")
def recorded_namedropper(kout_graph):
    """One recorded Name-Dropper run whose last STEADY_WINDOW rounds form
    the steady-state kernel (peak pointer traffic, knowledge nearly full)."""
    spec = get_algorithm("namedropper")
    probe = repro.discover(
        kout_graph, algorithm="namedropper", seed=SEED, enforce_legality=False
    )
    return record_run(
        kout_graph,
        spec.node_factory(),
        seed=SEED,
        snapshot_rounds=(probe.rounds - STEADY_WINDOW,),
        max_rounds=spec.round_cap(N),
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_b1_engine_rounds_namedropper(benchmark, kout_graph, backend):
    """Cost of executing 5 gossip rounds (heavy pointer traffic)."""

    def run_five_rounds():
        engine = SynchronousEngine(
            kout_graph,
            get_algorithm("namedropper").node_factory(),
            seed=SEED,
            enforce_legality=False,
            backend=backend,
        )
        for _ in range(5):
            engine.step()
        return engine.round_no

    assert benchmark(run_five_rounds) == 5


@pytest.mark.parametrize("backend", BACKENDS)
def test_b1_steady_state_replay(benchmark, recorded_namedropper, backend):
    """Engine-only round throughput in the run's heaviest regime.

    Replays the final STEADY_WINDOW rounds of the recorded Name-Dropper
    run from a knowledge snapshot, so protocol work and engine
    construction are both excluded — this is the pure delivery/learning
    kernel the fast path was built for (see docs/PERF.md).
    """
    recorded = recorded_namedropper
    start = recorded.rounds - STEADY_WINDOW + 1

    def make_engine():
        engine = replay_engine(
            recorded, start_round=start, backend=backend, force=True
        )
        return (engine,), {}

    def run_window(engine):
        for _ in range(STEADY_WINDOW):
            engine.step()
        return engine.is_strongly_complete()

    assert benchmark.pedantic(run_window, setup=make_engine, rounds=20)


def test_b1_full_sublog_run(benchmark, kout_graph):
    """End-to-end core-algorithm run at n=256."""

    result = benchmark(
        lambda: repro.discover(
            kout_graph, algorithm="sublog", seed=SEED, enforce_legality=False
        )
    )
    assert result.completed


def test_b1_legality_enforcement_overhead(benchmark, kout_graph):
    """The same run with per-message legality checks on (tests pay this)."""

    result = benchmark(
        lambda: repro.discover(
            kout_graph, algorithm="sublog", seed=SEED, enforce_legality=True
        )
    )
    assert result.completed


def test_b1_graph_generation(benchmark):
    graph = benchmark(lambda: make_topology("kout", 2048, seed=3, k=3))
    assert graph.n == 2048


def test_b1_diameter_estimate(benchmark, kout_graph):
    diameter = benchmark(lambda: kout_graph.undirected_diameter(exact=False))
    assert diameter >= 1


def test_b1_ball_query(benchmark, kout_graph):
    ball = benchmark(lambda: kout_graph.undirected_ball(0, 3))
    assert len(ball) > 1
