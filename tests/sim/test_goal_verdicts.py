"""The engine's goal verdicts, round by round, against the reference
predicates of :mod:`repro.analysis.invariants`.

The stores answer the goals from their knowledge (``closed`` and
``weak_leader``); these tests step engines on both stores through
crashes, a late joiner and one out-of-band injection, and after every
round recompute each goal from the knowledge with the pure closure
functions.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import get_algorithm
from repro.analysis.invariants import closure_deficit, weak_closure_witnesses
from repro.graphs import make_topology
from repro.sim import BACKENDS, SynchronousEngine
from repro.sim.churn import JoinPlan
from repro.sim.engine import GOALS
from repro.sim.faults import FaultPlan
from repro.sim.node import ProtocolNode

ALGORITHMS = ("sublog", "namedropper", "det_optimal", "flooding")

N = 24

#: Rounds stepped per run: past fault-free closure for every listed protocol.
ROUNDS = 40


def _reference(engine, goal):
    knowledge = engine.knowledge
    if goal == "strong":
        return not closure_deficit(knowledge)
    if goal == "weak":
        return bool(weak_closure_witnesses(knowledge))
    alive = engine.alive_nodes
    return not closure_deficit(knowledge, universe=alive, holders=alive)


def _assert_verdicts(engine, goal):
    assert engine.goal_reached() == _reference(engine, goal), engine.round_no
    assert engine.is_strongly_complete() == _reference(engine, "strong")
    witnesses = weak_closure_witnesses(engine.knowledge)
    assert engine.weak_leader() == (witnesses[0] if witnesses else None)


@pytest.mark.parametrize("faults", [False, True], ids=["fault-free", "crash-join"])
@pytest.mark.parametrize("goal", GOALS)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_verdicts_match_the_reference_every_round(algorithm, backend, goal, faults):
    graph = make_topology("kout", N, seed=5, id_space="random", k=3)
    ids = sorted(graph.node_ids)
    plans = {}
    if faults:
        plans = dict(
            fault_plan=FaultPlan(crash_rounds={ids[3]: 3, ids[11]: 6}),
            join_plan=JoinPlan(join_rounds={ids[7]: 4}),
        )
    engine = SynchronousEngine(
        graph,
        get_algorithm(algorithm).node_factory(),
        seed=5,
        goal=goal,
        backend=backend,
        **plans,
    )
    # One machine learns everyone out of band: complete, but known only
    # by its few in-neighbours, so weak discovery does not hold yet.
    taught = ids[-1]
    assert engine.inject_knowledge(taught, ids)
    assert len(engine.knowledge[taught]) == N
    assert not weak_closure_witnesses(engine.knowledge)
    _assert_verdicts(engine, goal)
    assert not engine.goal_reached()
    for _ in range(ROUNDS):
        engine.step()
        _assert_verdicts(engine, goal)
    if not faults:
        # Every listed protocol closes fault-free: the verdict turned.
        assert engine.goal_reached()


@pytest.mark.parametrize("backend", BACKENDS)
def test_weak_leader_is_the_first_witness(backend):
    # Everyone knows 10 and 11; 10 knows only 11, while 11 and 12 know
    # everyone.  10 is known by all but incomplete, so 11 leads.
    ids = list(range(10, 22))
    graph = {node: {10, 11} - {node} for node in ids}
    for complete in (11, 12):
        graph[complete] = set(ids) - {complete}
    for node in ids:
        graph[node].add(12)
    graph[10] = {11}
    engine = SynchronousEngine(graph, _Quiet, goal="weak", backend=backend)
    assert weak_closure_witnesses(engine.knowledge) == [11]
    assert engine.weak_leader() == 11
    assert engine.goal_reached()
    assert not engine.is_strongly_complete()


@pytest.mark.parametrize("backend", BACKENDS)
def test_closed_reads_only_the_named_machines(backend):
    # 0 and 1 know each other; 2 knows 0, and nobody knows 2.
    engine = SynchronousEngine({0: {1}, 1: {0}, 2: {0}}, _Quiet, backend=backend)
    store = engine.store
    assert store.closed(())
    assert store.closed((2,))
    assert store.closed((0, 1))
    assert not store.closed((0, 2))
    assert not store.closed(engine.node_ids)


class _Quiet(ProtocolNode):
    def on_round(self, round_no, inbox, rng):
        pass
