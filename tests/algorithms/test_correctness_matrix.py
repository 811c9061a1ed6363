"""Integration matrix: every algorithm completes strong discovery on every
topology, under both identifier namespaces, with legality enforcement on.

This is the suite's central correctness statement: the shipped protocols
solve the resource-discovery problem on arbitrary weakly connected inputs
within the communication model (a violation raises), not just on the
benchmark workloads.
"""

from __future__ import annotations

import pytest

import repro
from repro.graphs import make_topology
from repro.sim import SynchronousEngine

ALGORITHMS = sorted(repro.algorithm_names())
TOPOLOGIES = (
    "path",
    "bipath",
    "cycle",
    "star_in",
    "star_out",
    "tree",
    "grid",
    "hypercube",
    "lollipop",
    "kout",
    "gnp",
    "prefattach",
    "clustered",
    "smallworld",
    "complete",
)

N = 40
SEED = 17


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_strong_discovery_dense_ids(algorithm: str, topology: str):
    graph = make_topology(topology, N, seed=SEED)
    result = repro.discover(graph, algorithm=algorithm, seed=SEED)
    assert result.completed, f"{algorithm} failed on {topology}"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("topology", ("path", "star_in", "kout", "clustered"))
def test_strong_discovery_random_ids(algorithm: str, topology: str):
    graph = make_topology(topology, N, seed=SEED, id_space="random")
    result = repro.discover(graph, algorithm=algorithm, seed=SEED)
    assert result.completed, f"{algorithm} failed on {topology} with random ids"


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_node_views_match_ground_truth(algorithm: str):
    graph = make_topology("kout", 32, seed=3, k=3)
    spec = repro.get_algorithm(algorithm)
    engine = SynchronousEngine(
        graph, spec.node_factory(), seed=3, algorithm_name=algorithm
    )
    result = engine.run(max_rounds=spec.round_cap(32))
    assert result.completed
    assert all(engine.nodes[node].known is engine.knowledge[node] for node in engine.node_ids)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_runs_are_deterministic(algorithm: str):
    graph = make_topology("kout", 32, seed=6, k=3)

    def signature(seed: int):
        result = repro.discover(graph, algorithm=algorithm, seed=seed)
        return (result.rounds, result.messages, result.pointers)

    assert signature(5) == signature(5)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("n", (1, 2, 3))
def test_tiny_graphs(algorithm: str, n: int):
    graph = make_topology("path", n)
    result = repro.discover(graph, algorithm=algorithm, seed=1)
    assert result.completed
    if n == 1:
        assert result.rounds == 0
