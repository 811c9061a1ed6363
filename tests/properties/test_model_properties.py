"""Property-based tests over arbitrary weakly connected inputs.

These are the strongest statements in the suite: for *any* weakly
connected directed knowledge graph hypothesis can construct —

* every shipped algorithm completes strong discovery,
* within the communication model (strict legality enforcement and the
  ball-containment lower-bound checker are both armed),
* deterministically in the seed,
* with every node's private view matching ground truth at the end,
* never undershooting the information-theoretic round bound.
"""

from __future__ import annotations


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.bounds import lower_bound_rounds
from repro.analysis.invariants import BallContainmentObserver
from repro.graphs.knowledge import KnowledgeGraph
from repro.oracle import InvariantOracle
from repro.sim import SynchronousEngine

from ..strategies import weakly_connected_graphs

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGORITHMS = sorted(repro.algorithm_names())


@COMMON
@given(graph=weakly_connected_graphs(), seed=st.integers(0, 1000))
def test_sublog_completes_on_arbitrary_graphs(graph: KnowledgeGraph, seed: int):
    observer = BallContainmentObserver(graph, strict=True)
    result = repro.discover(
        graph,
        algorithm="sublog",
        seed=seed,
        observers=[observer],
        enforce_legality=True,
    )
    assert result.completed
    assert not observer.violations


@COMMON
@given(graph=weakly_connected_graphs(max_nodes=12), seed=st.integers(0, 1000))
def test_all_algorithms_complete(graph: KnowledgeGraph, seed: int):
    for algorithm in ALGORITHMS:
        spec = repro.get_algorithm(algorithm)
        result = repro.discover(
            graph,
            algorithm=algorithm,
            seed=seed,
            enforce_legality=True,
            # rpj is randomized-slow on tiny adversarial graphs; give slack.
            max_rounds=max(spec.round_cap(graph.n), 50 * graph.n + 400),
        )
        assert result.completed, algorithm


@COMMON
@given(graph=weakly_connected_graphs(), seed=st.integers(0, 1000))
def test_round_lower_bound_never_beaten(graph: KnowledgeGraph, seed: int):
    bound = lower_bound_rounds(graph)
    for algorithm in ("swamping", "sublog"):
        result = repro.discover(graph, algorithm=algorithm, seed=seed)
        assert result.completed
        assert result.rounds >= bound


@COMMON
@given(graph=weakly_connected_graphs(), seed=st.integers(0, 1000))
def test_views_match_ground_truth(graph: KnowledgeGraph, seed: int):
    spec = repro.get_algorithm("sublog")
    engine = SynchronousEngine(
        graph, spec.node_factory(), seed=seed, observers=[InvariantOracle()]
    )
    result = engine.run(max_rounds=spec.round_cap(graph.n) + 200)
    assert result.completed
    assert all(engine.nodes[node].known is engine.knowledge[node] for node in engine.node_ids)


@COMMON
@given(graph=weakly_connected_graphs(max_nodes=10), seed=st.integers(0, 1000))
def test_determinism(graph: KnowledgeGraph, seed: int):
    def signature(algorithm: str):
        result = repro.discover(graph, algorithm=algorithm, seed=seed)
        return (result.rounds, result.messages, result.pointers)

    for algorithm in ("sublog", "namedropper"):
        assert signature(algorithm) == signature(algorithm)


@COMMON
@given(graph=weakly_connected_graphs(max_nodes=12), seed=st.integers(0, 1000))
def test_message_floor(graph: KnowledgeGraph, seed: int):
    # Unless the input is already complete, at least one message per
    # initially-ignorant machine must be sent.
    result = repro.discover(graph, algorithm="sublog", seed=seed)
    incomplete_at_start = sum(
        1 for node in graph.node_ids if len(graph.out(node)) < graph.n - 1
    )
    if incomplete_at_start:
        assert result.messages >= 1


@COMMON
@given(
    graph=weakly_connected_graphs(min_nodes=3, max_nodes=12),
    seed=st.integers(0, 1000),
    loss_ppm=st.integers(0, 120_000),
)
def test_sublog_survives_random_loss(
    graph: KnowledgeGraph, seed: int, loss_ppm: int
):
    from repro.sim import FaultPlan

    result = repro.discover(
        graph,
        algorithm="sublog",
        seed=seed,
        fault_plan=FaultPlan(loss_rate=loss_ppm / 1_000_000, seed=seed),
        resilient=True,
        watchdog_phases=3,
        stagnation_phases=4,
        max_rounds=4000,
    )
    assert result.completed


@COMMON
@given(
    graph=weakly_connected_graphs(min_nodes=2, max_nodes=12),
    seed=st.integers(0, 1000),
    jitter=st.integers(0, 3),
)
def test_sublog_completes_under_jitter(
    graph: KnowledgeGraph, seed: int, jitter: int
):
    result = repro.discover(
        graph,
        algorithm="sublog",
        seed=seed,
        delivery=f"jitter:{jitter}" if jitter else None,
        resilient=True,
        stagnation_phases=4,
        max_rounds=6000,
    )
    assert result.completed


@COMMON
@given(
    incumbents=st.integers(2, 10),
    joiners=st.integers(0, 6),
    seed=st.integers(0, 1000),
)
def test_discovery_with_staggered_joins(incumbents: int, joiners: int, seed: int):
    from repro.sim import late_join_workload

    graph, plan = late_join_workload(
        incumbents, joiners, seed=seed, k=2, join_start=5, join_stride=2
    )
    result = repro.discover(graph, algorithm="sublog", seed=seed, join_plan=plan)
    assert result.completed
    if joiners:
        assert result.rounds >= plan.last_join
