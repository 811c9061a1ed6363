"""Property tests for the two overlay baselines.

Two claims the ISSUE requires machine-checked:

* **det_optimal is message-frugal**: on low-diameter topologies (the
  regime arXiv:1306.1692 targets) the run's total message count stays
  O(n) — asserted as ``<= 16 n + 64``, roughly 30% above the worst
  calibrated constant.  The linear bound is *not* claimed on chains:
  member reports relay through the pipeline there, costing Θ(n·D)
  (documented in the module docstring), so the strategy draws only
  families with (poly)logarithmic diameter.

* **chord_discover's finger tables are consistent**: every entry of
  ``finger_table()`` is the true ring successor of ``id + 2^k`` over the
  node's current known set — after arbitrary incremental ``learn()``
  growth (exercising the cached sorted view's invalidation path) and at
  the end of full discovery runs over arbitrary weakly connected graphs.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.chord_discover import ChordDiscoverNode
from repro.algorithms.registry import get_algorithm
from repro.graphs.generators import make_topology
from repro.graphs.idspace import RING_MODULUS, finger_targets, ring_distance
from repro.graphs.knowledge import KnowledgeGraph
from repro.sim import SynchronousEngine

from ..strategies import weakly_connected_graphs

COMMON = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Low-diameter families only — the linear-message regime.
LOW_DIAMETER = ("kout", "gnp", "star_in", "tree", "hypercube")


def brute_force_fingers(node_id: int, known: set) -> tuple:
    """Reference finger table: nearest clockwise peer per target, naively."""
    peers = sorted(known - {node_id})
    if not peers:
        return ()
    fingers = set()
    for target in finger_targets(node_id):
        fingers.add(min(peers, key=lambda peer: ring_distance(target, peer)))
    return tuple(sorted(fingers))


@COMMON
@given(
    topology=st.sampled_from(LOW_DIAMETER),
    n=st.integers(min_value=4, max_value=96),
    seed=st.integers(0, 1000),
    sparse=st.booleans(),
)
def test_det_optimal_messages_linear_on_low_diameter(topology, n, seed, sparse):
    graph = make_topology(
        topology, n, seed=seed, id_space="random" if sparse else "dense"
    )
    result = repro.discover(graph, algorithm="det_optimal", seed=seed)
    assert result.completed
    assert result.messages <= 16 * n + 64, (
        f"{topology} n={n} seed={seed}: {result.messages} messages"
    )


@COMMON
@given(
    node_id=st.integers(min_value=0, max_value=RING_MODULUS - 1),
    batches=st.lists(
        st.sets(st.integers(min_value=0, max_value=RING_MODULUS - 1), max_size=12),
        min_size=1,
        max_size=6,
    ),
)
def test_finger_table_matches_brute_force_under_incremental_growth(
    node_id, batches
):
    node = ChordDiscoverNode(node_id)
    node.bind({node_id, *batches[0]}, random.Random(0))
    for batch in batches[1:]:
        # The host grows the row it bound; the cached sorted view must
        # notice the growth without being told.
        node.known.update(batch)
        assert node.finger_table() == brute_force_fingers(node_id, node.known)
    assert node.finger_table() == brute_force_fingers(node_id, node.known)


@COMMON
@given(graph=weakly_connected_graphs(max_nodes=12), seed=st.integers(0, 1000))
def test_fingers_consistent_at_closure(graph: KnowledgeGraph, seed: int):
    spec = get_algorithm("chord_discover")
    engine = SynchronousEngine(
        graph,
        spec.node_factory(),
        seed=seed,
        goal="strong",
        algorithm_name="chord_discover",
    )
    result = engine.run(max_rounds=spec.round_cap(graph.n))
    assert result.completed
    for node in engine.nodes.values():
        assert node.known == set(graph.node_ids)
        assert node.finger_table() == brute_force_fingers(node.node_id, node.known)
