"""Differential tests: the bit-packed vector backend must be
bit-identical to the dense fast path (and by transitivity the legacy
reference path).

The vector backend (``SynchronousEngine(backend="vector")``) lifts the
fast path's candidate-mask learning rule onto a packed numpy matrix with
batched per-round screens.  Breadth (all algorithms x delivery families
x faults) is exercised here and continuously by the oracle fuzzer's
``diff_vector_vs_fast`` leg; this suite also pins the satellite
contracts — digest equality across all three backends, the numpy import
guard, and backend-name validation.
"""

from __future__ import annotations

import pytest

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.graphs import make_topology
from repro.sim import BACKENDS, SynchronousEngine, vector_available
from repro.sim.churn import JoinPlan
from repro.sim.errors import ProtocolViolation
from repro.sim.faults import FaultPlan, crash_fraction_plan

needs_numpy = pytest.mark.skipif(
    not vector_available(), reason="numpy unavailable"
)

TOPOLOGY_ARGS = {"kout": {"k": 3}, "gnp": {"p": 0.25}}


def _run_backend(graph, algorithm, backend, *, seed=42, enforce=False,
                 goal="strong", delivery=None, fault_plan=None,
                 join_plan=None):
    spec = get_algorithm(algorithm)
    engine = SynchronousEngine(
        graph,
        spec.node_factory(),
        seed=seed,
        goal=goal,
        delivery=delivery,
        fault_plan=fault_plan,
        join_plan=join_plan,
        enforce_legality=enforce,
        backend=backend,
        algorithm_name=algorithm,
    )
    return engine, engine.run(spec.round_cap(engine.n))


def _assert_identical(pair_a, pair_b):
    (engine_a, result_a), (engine_b, result_b) = pair_a, pair_b
    assert result_a == result_b
    assert engine_a.knowledge_digest() == engine_b.knowledge_digest()
    assert dict(engine_a.knowledge) == dict(engine_b.knowledge)
    assert engine_a.weak_leader() == engine_b.weak_leader()
    assert engine_a.alive_nodes == engine_b.alive_nodes


@needs_numpy
@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize(
    "topology,id_space", [("kout", "dense"), ("path", "random")]
)
@pytest.mark.parametrize("enforce", [True, False])
def test_all_algorithms_match_fast(algorithm, topology, id_space, enforce):
    graph = make_topology(
        topology, 20, seed=9, id_space=id_space,
        **TOPOLOGY_ARGS.get(topology, {}),
    )
    fast = _run_backend(graph, algorithm, "fast", enforce=enforce)
    vector = _run_backend(graph, algorithm, "vector", enforce=enforce)
    _assert_identical(fast, vector)


@needs_numpy
@pytest.mark.parametrize(
    "delivery", ["adversarial:2", "perlink:2", "partition:3-6", "jitter:2"]
)
@pytest.mark.parametrize("algorithm", ["sublog", "namedropper", "flooding"])
@pytest.mark.parametrize("enforce", [True, False])
def test_delivery_models_match(delivery, algorithm, enforce):
    graph = make_topology("kout", 20, seed=9, k=3)
    fast = _run_backend(graph, algorithm, "fast", enforce=enforce,
                        delivery=delivery)
    vector = _run_backend(graph, algorithm, "vector", enforce=enforce,
                          delivery=delivery)
    _assert_identical(fast, vector)


@needs_numpy
@pytest.mark.parametrize("algorithm", ["namedropper", "sublog", "flooding"])
def test_faults_and_churn_match(algorithm):
    graph = make_topology("kout", 24, seed=5, k=3)
    loss = FaultPlan(loss_rate=0.15, seed=3)
    crashes = crash_fraction_plan(graph.node_ids, 0.2, 3, seed=7)
    joins = JoinPlan(
        join_rounds={node: 4 for node in sorted(graph.node_ids)[:5]}
    )
    for fault_plan, join_plan, goal in [
        (loss, None, "strong_alive"),
        (crashes, None, "strong_alive"),
        (None, joins, "weak"),
    ]:
        fast = _run_backend(graph, algorithm, "fast", goal=goal,
                            fault_plan=fault_plan, join_plan=join_plan)
        vector = _run_backend(graph, algorithm, "vector", goal=goal,
                              fault_plan=fault_plan, join_plan=join_plan)
        _assert_identical(fast, vector)


@needs_numpy
def test_digest_identical_across_all_three_backends():
    """Satellite contract: ``knowledge_digest()`` — computed from packed
    uint8 rows on the vector backend, from Python-int masks on the fast
    path, and from sorted sets on the legacy path — is byte-identical
    round by round on a seeded run."""
    graph = make_topology("kout", 22, seed=13, k=3)
    spec = get_algorithm("namedropper")
    engines = {
        backend: SynchronousEngine(
            graph, spec.node_factory(), seed=31, enforce_legality=False,
            backend=backend,
        )
        for backend in BACKENDS
    }
    for _ in range(spec.round_cap(22)):
        digests = set()
        for engine in engines.values():
            engine.step()
            digests.add(engine.knowledge_digest())
        assert len(digests) == 1
        if all(e.goal_reached() for e in engines.values()):
            break
    assert all(e.is_strongly_complete() for e in engines.values())


@needs_numpy
def test_knowledge_property_is_lazy_but_current():
    """The vector backend materializes knowledge sets on demand from the
    packed rows — and they must match the reference path when read
    mid-run."""
    graph = make_topology("kout", 16, seed=2, k=3)
    spec = get_algorithm("namedropper")
    vector = SynchronousEngine(
        graph, spec.node_factory(), seed=5, enforce_legality=False,
        backend="vector",
    )
    reference = SynchronousEngine(
        graph, spec.node_factory(), seed=5, enforce_legality=False,
        backend="legacy",
    )
    for _ in range(4):
        vector.step()
        reference.step()
        assert dict(vector.knowledge) == dict(reference.knowledge)


@needs_numpy
def test_protocol_violation_identical_on_vector():
    from repro.sim.messages import Message
    from repro.sim.node import ProtocolNode

    class CheatNode(ProtocolNode):
        def on_round(self, round_no, inbox, rng):
            if round_no == 2:
                peer = min(self.known - {self.node_id})
                self._outbox.append(
                    Message("cheat", self.node_id, peer,
                            ids=frozenset({987654321}))
                )

    graph = {0: {1}, 1: {0}, 2: {0, 1}}
    errors = []
    for backend in ("fast", "vector"):
        engine = SynchronousEngine(
            graph, CheatNode, seed=1, enforce_legality=True, backend=backend
        )
        with pytest.raises(ProtocolViolation) as excinfo:
            for _ in range(4):
                engine.step()
        errors.append(str(excinfo.value))
    assert "carries unknown id 987654321" in errors[0]
    assert errors[0] == errors[1]


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            SynchronousEngine({0: {1}, 1: {0}}, _noop_factory,
                              backend="turbo")

    def test_explicit_backend_wins_over_fast_path(self):
        engine = SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True,
            backend="legacy",
        )
        assert engine.backend == "legacy"
        assert engine.fast_path is False

    def test_fast_path_flag_resolves_backend(self):
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True
        ).backend == "fast"
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory
        ).backend == "legacy"

    def test_missing_numpy_raises_clear_error(self, monkeypatch):
        import repro.sim.vector_kernel as vk

        monkeypatch.setattr(vk, "np", None)
        assert not vk.vector_available()
        for backend in ("vector", "fast"):
            with pytest.raises(ImportError, match=f"'{backend}' engine backend requires numpy"):
                SynchronousEngine({0: {1}, 1: {0}}, _noop_factory, backend=backend)
        # The legacy reference path runs without numpy, and the default
        # choices fall back to it.
        SynchronousEngine({0: {1}, 1: {0}}, _noop_factory, backend="legacy")
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True
        ).backend == "legacy"
        from repro.bench.runner import resolve_backend

        assert resolve_backend(64) == resolve_backend(10**5) == "legacy"


def _noop_factory(node_id):
    from repro.sim.node import ProtocolNode

    class Quiet(ProtocolNode):
        def on_round(self, round_no, inbox, rng):
            pass

    return Quiet(node_id)
