"""Differential tests: the fast store must be bit-identical to the
legacy reference store.

The fast store (``SynchronousEngine(backend="fast")``) keeps knowledge as
dense-index bitmasks with candidate-mask learning, a mask legality guard
and completion short-circuits.  Its only correctness argument is this
suite: every registry algorithm, across topologies, id namespaces,
goals, jitter, faults, and churn, must produce *exactly* the same
:class:`RunResult` — including per-kind counters and the per-round stats
trajectory — and the same ground-truth knowledge and weak leader.

One caveat is deliberate: with ``enforce_legality=False`` equivalence is
promised only for *legal* traffic (the documented contract of disabling
the check).  Illegal traffic is exercised with enforcement **on**, where
both paths must raise the identical :class:`ProtocolViolation`.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import algorithm_names, get_algorithm
from repro.graphs import make_topology
from repro.sim import SynchronousEngine
from repro.sim.churn import JoinPlan
from repro.sim.errors import ProtocolViolation, UnknownNodeError
from repro.sim.faults import FaultPlan, crash_fraction_plan
from repro.sim.node import ProtocolNode
from repro.sim.transport import BoundedJitter

from ..strategies import weakly_connected_graphs

TOPOLOGY_ARGS = {
    "kout": {"k": 3},
    "gnp": {"p": 0.25},
}


def _both_paths(graph, algorithm, *, seed, enforce, goal="strong",
                delivery=None, fault_plan=None, join_plan=None):
    """Run one configuration on both paths; return (legacy, fast) engines
    and results."""
    outcome = []
    for fast in (False, True):
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
            fast_path=fast,
            algorithm_name=algorithm,
        )
        outcome.append((engine, engine.run(spec.round_cap(engine.n))))
    return outcome


def _assert_identical(legacy, fast):
    (engine_l, result_l), (engine_f, result_f) = legacy, fast
    assert result_l == result_f
    assert dict(engine_l.knowledge) == dict(engine_f.knowledge)
    assert engine_l.weak_leader() == engine_f.weak_leader()
    assert engine_l.alive_nodes == engine_f.alive_nodes
    assert engine_l.is_strongly_complete() == engine_f.is_strongly_complete()


@pytest.mark.parametrize("algorithm", algorithm_names())
@pytest.mark.parametrize("topology,id_space", [("kout", "dense"), ("path", "random")])
@pytest.mark.parametrize("enforce", [True, False])
def test_all_algorithms_match(algorithm, topology, id_space, enforce):
    graph = make_topology(
        topology, 20, seed=9, id_space=id_space, **TOPOLOGY_ARGS.get(topology, {})
    )
    legacy, fast = _both_paths(graph, algorithm, seed=42, enforce=enforce)
    _assert_identical(legacy, fast)


@pytest.mark.parametrize("jitter", [1, 3])
@pytest.mark.parametrize("enforce", [True, False])
def test_jitter_match(jitter, enforce):
    graph = make_topology("kout", 18, seed=4, k=3)
    legacy, fast = _both_paths(
        graph, "namedropper", seed=7, enforce=enforce, delivery=f"jitter:{jitter}"
    )
    _assert_identical(legacy, fast)


# Pre-refactor signatures of the engine's *inline* jitter implementation
# (captured from commit a023060, before delivery semantics moved into
# repro.sim.transport): kout graph, n=18, graph seed 4, k=3, engine seed
# 7, enforce_legality=True, max_rounds=4000.  The knowledge hash covers
# every machine's final ground-truth set.  BoundedJitter through the
# transport layer must keep reproducing these bit-for-bit on both engine
# paths — this is the refactor's backward-compatibility contract.
_JITTER_GOLDENS = {
    # (algorithm, jitter): (completed, rounds, messages, pointers, dropped, khash)
    ("flooding", 1): (True, 4, 286, 1527, 0, "9961a19949b0"),
    ("flooding", 3): (True, 6, 377, 1520, 0, "9961a19949b0"),
    ("namedropper", 1): (True, 9, 162, 1532, 0, "9961a19949b0"),
    ("namedropper", 3): (True, 11, 198, 1837, 0, "9961a19949b0"),
    ("rpj", 1): (True, 9, 290, 1397, 0, "9961a19949b0"),
    ("rpj", 3): (True, 12, 382, 1698, 0, "9961a19949b0"),
    ("sublog", 1): (True, 21, 293, 820, 0, "9961a19949b0"),
    ("sublog", 3): (True, 35, 521, 1173, 0, "9961a19949b0"),
    ("sublogcoin", 1): (True, 39, 464, 917, 0, "9961a19949b0"),
    ("sublogcoin", 3): (True, 41, 638, 1433, 0, "9961a19949b0"),
    ("swamping", 1): (True, 3, 436, 5062, 0, "9961a19949b0"),
    ("swamping", 3): (True, 4, 601, 7127, 0, "9961a19949b0"),
}

# Same contract under fault injection (send-time loss coin interleaved
# with the jitter RNG): namedropper, kout n=24 graph seed 5, engine seed
# 42, jitter 2, loss_rate 0.15 fault seed 3.
_JITTER_LOSS_GOLDEN = (True, 13, 312, 3940, 45, "8dcf3f3b1291")


def _knowledge_hash(engine):
    canonical = sorted(
        (node, tuple(sorted(known))) for node, known in engine.knowledge.items()
    )
    return hashlib.sha256(repr(canonical).encode()).hexdigest()[:12]


def _golden_signature(engine, result):
    return (
        result.completed,
        result.rounds,
        result.messages,
        result.pointers,
        result.dropped_messages,
        _knowledge_hash(engine),
    )


def _run_golden(algorithm, *, fast, graph, seed, delivery, fault_plan=None):
    engine = SynchronousEngine(
        graph,
        get_algorithm(algorithm).node_factory(),
        seed=seed,
        fault_plan=fault_plan,
        enforce_legality=True,
        fast_path=fast,
        algorithm_name=algorithm,
        delivery=delivery,
    )
    return engine, engine.run(max_rounds=4000)


@pytest.mark.parametrize("algorithm,jitter", sorted(_JITTER_GOLDENS))
def test_bounded_jitter_matches_pre_refactor_goldens(algorithm, jitter):
    """BoundedJitter through the transport layer is bit-identical to the
    pre-refactor inline ``jitter=J`` — same rounds, messages, pointers,
    and final knowledge — on both engine paths, however it is spelled
    (model instance or spec string)."""
    graph = make_topology("kout", 18, seed=4, k=3)
    want = _JITTER_GOLDENS[(algorithm, jitter)]
    for fast in (False, True):
        results = []
        for delivery in (BoundedJitter(jitter), f"jitter:{jitter}"):
            engine, result = _run_golden(
                algorithm, fast=fast, graph=graph, seed=7, delivery=delivery
            )
            assert _golden_signature(engine, result) == want, (fast, delivery)
            results.append(result)
        # The spellings are not merely signature-equal: the full results
        # (per-kind counters, per-round trajectories) coincide.
        assert results[0] == results[1]


@pytest.mark.parametrize("fast", [False, True])
def test_bounded_jitter_with_loss_matches_golden(fast):
    graph = make_topology("kout", 24, seed=5, k=3)
    plan = FaultPlan(loss_rate=0.15, seed=3)
    engine_a, result_a = _run_golden(
        "namedropper", fast=fast, graph=graph, seed=42, fault_plan=plan, delivery="jitter:2"
    )
    engine_b, result_b = _run_golden(
        "namedropper",
        fast=fast,
        graph=graph,
        seed=42,
        fault_plan=plan,
        delivery=BoundedJitter(2),
    )
    assert _golden_signature(engine_a, result_a) == _JITTER_LOSS_GOLDEN
    assert _golden_signature(engine_b, result_b) == _JITTER_LOSS_GOLDEN
    assert result_a == result_b
    # The reason split accounts for every loss: all 45 are send-time
    # fault drops (no crashes or churn in this configuration).
    assert result_a.dropped_by_reason == {"fault": 45}


@pytest.mark.parametrize(
    "delivery",
    ["adversarial:2", "perlink:2", "partition:3-6", "jitter:2"],
)
@pytest.mark.parametrize("algorithm", ["sublog", "namedropper", "flooding"])
@pytest.mark.parametrize("enforce", [True, False])
def test_delivery_models_match_across_paths(delivery, algorithm, enforce):
    """Every delivery model produces identical results on both engine
    paths (completion itself is model-dependent and not asserted here)."""
    graph = make_topology("kout", 20, seed=9, k=3)
    legacy, fast = _both_paths(
        graph, algorithm, seed=42, enforce=enforce, delivery=delivery
    )
    _assert_identical(legacy, fast)


@pytest.mark.parametrize("fast", [False, True])
def test_protocol_violation_identical_under_transport_jitter(fast):
    """The legality guard raises the same error text when the violating
    traffic flows through a transport-layer delivery model."""
    graph = {0: {1}, 1: {0}, 2: {0, 1}}
    engine = SynchronousEngine(
        graph,
        _UnknownIdNode,
        seed=1,
        delivery=BoundedJitter(2),
        enforce_legality=True,
        fast_path=fast,
    )
    with pytest.raises(ProtocolViolation) as excinfo:
        for _ in range(4):
            engine.step()
    assert "carries unknown id 987654321" in str(excinfo.value)


@pytest.mark.parametrize("algorithm", ["namedropper", "sublog", "flooding"])
@pytest.mark.parametrize("enforce", [True, False])
def test_faults_and_churn_match(algorithm, enforce):
    graph = make_topology("kout", 24, seed=5, k=3)
    loss = FaultPlan(loss_rate=0.15, seed=3)
    crashes = crash_fraction_plan(graph.node_ids, 0.2, 3, seed=7)
    joins = JoinPlan(join_rounds={node: 4 for node in sorted(graph.node_ids)[:5]})
    for fault_plan, join_plan, goal, delivery in [
        (loss, None, "strong_alive", "jitter:1"),
        (crashes, None, "strong_alive", None),
        (None, joins, "weak", None),
    ]:
        legacy, fast = _both_paths(
            graph,
            algorithm,
            seed=42,
            enforce=enforce,
            goal=goal,
            delivery=delivery,
            fault_plan=fault_plan,
            join_plan=join_plan,
        )
        _assert_identical(legacy, fast)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    graph=weakly_connected_graphs(max_nodes=14),
    algorithm=st.sampled_from(algorithm_names()),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    enforce=st.booleans(),
    jitter=st.integers(min_value=0, max_value=2),
    loss=st.sampled_from([0.0, 0.2]),
)
def test_property_differential(graph, algorithm, seed, enforce, jitter, loss):
    fault_plan = FaultPlan(loss_rate=loss, seed=seed % 97) if loss else None
    legacy, fast = _both_paths(
        graph,
        algorithm,
        seed=seed,
        enforce=enforce,
        delivery=f"jitter:{jitter}" if jitter else None,
        fault_plan=fault_plan,
    )
    _assert_identical(legacy, fast)


class _UnknownIdNode(ProtocolNode):
    """Carries an unlearned id in round 2 (a model violation)."""

    def on_round(self, round_no, inbox, rng):
        from repro.sim.messages import Message

        if round_no == 2:
            peer = min(self.known - {self.node_id})
            self._outbox.append(
                Message(
                    kind="cheat",
                    sender=self.node_id,
                    recipient=peer,
                    ids=frozenset({987654321}),
                )
            )


class _UnknownRecipientNode(ProtocolNode):
    """Messages a machine that does not exist."""

    def on_round(self, round_no, inbox, rng):
        from repro.sim.messages import Message

        if round_no == 1 and self.node_id == min(self.known):
            self._outbox.append(
                Message(kind="ghost", sender=self.node_id, recipient=987654321)
            )


@pytest.mark.parametrize("fast", [False, True])
def test_protocol_violation_identical(fast):
    graph = {0: {1}, 1: {0}, 2: {0, 1}}
    engine = SynchronousEngine(
        graph, _UnknownIdNode, seed=1, enforce_legality=True, fast_path=fast
    )
    with pytest.raises(ProtocolViolation) as excinfo:
        for _ in range(4):
            engine.step()
    assert "carries unknown id 987654321" in str(excinfo.value)


def test_protocol_violation_messages_match_across_paths():
    graph = {0: {1}, 1: {0}, 2: {0, 1}}
    errors = []
    for fast in (False, True):
        engine = SynchronousEngine(
            graph, _UnknownIdNode, seed=1, enforce_legality=True, fast_path=fast
        )
        with pytest.raises(ProtocolViolation) as excinfo:
            for _ in range(4):
                engine.step()
        errors.append(str(excinfo.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("enforce", [True, False])
@pytest.mark.parametrize("fast", [False, True])
def test_unknown_recipient_raises_on_both_paths(enforce, fast):
    graph = {0: {1}, 1: {0}}
    engine = SynchronousEngine(
        graph,
        _UnknownRecipientNode,
        seed=1,
        enforce_legality=enforce,
        fast_path=fast,
    )
    expected = ProtocolViolation if enforce else UnknownNodeError
    with pytest.raises(expected):
        for _ in range(3):
            engine.step()


def test_knowledge_property_is_lazy_but_current():
    """On the fast path the sets are materialized on demand, with or
    without enforcement — and must always reflect the bitmask state when
    read."""
    spec = get_algorithm("namedropper")
    # At n = 16 each row gains a few bits per round, at n = 128 some gain
    # dozens: the set sync takes its bit loop and its numpy route.
    for n, enforce in [(16, False), (16, True), (128, False), (128, True)]:
        graph = make_topology("kout", n, seed=2, k=3)
        engine = SynchronousEngine(
            graph,
            spec.node_factory(),
            seed=5,
            enforce_legality=enforce,
            fast_path=True,
        )
        reference = SynchronousEngine(
            graph, spec.node_factory(), seed=5, enforce_legality=enforce, fast_path=False
        )
        for _ in range(4):
            engine.step()
            reference.step()
            assert dict(engine.knowledge) == dict(reference.knowledge)


# -- legality parity: every backend raises the same ProtocolViolation ----------


class _ScriptedNode(ProtocolNode):
    """Sends exactly the messages its script lists for (round, node)."""

    def __init__(self, node_id, script):
        super().__init__(node_id)
        self.script = script

    def on_round(self, round_no, inbox, rng):
        from repro.sim.messages import Message

        for recipient, ids in self.script.get((round_no, self.node_id), ()):
            self._outbox.append(
                Message(kind="x", sender=self.node_id, recipient=recipient, ids=ids)
            )


def _scripted_engine(graph, script, backend):
    return SynchronousEngine(
        graph,
        lambda node: _ScriptedNode(node, script),
        seed=1,
        enforce_legality=True,
        backend=backend,
    )


def _violation_texts(graph, script, rounds=3):
    """The ProtocolViolation text each backend raises for *script*."""
    texts = {}
    for backend in ("legacy", "fast"):
        engine = _scripted_engine(graph, script, backend)
        with pytest.raises(ProtocolViolation) as excinfo:
            for _ in range(rounds):
                engine.step()
        texts[backend] = str(excinfo.value)
    return texts


def _ring(ids):
    """Each machine knows its two ring neighbours."""
    ids = list(ids)
    return {
        node: {ids[i - 1], ids[(i + 1) % len(ids)]} for i, node in enumerate(ids)
    }


#: One id space whose ids are their own bit positions, and one sparse
#: one.  Both are large enough that a ring machine misses more machines
#: than the fast guard's set-probe route takes (``_ABSENT_MAX``).
_ID_SPACES = {
    "dense": list(range(128)),
    "random": [1_000_003 * k + 7 for k in range(128)],
}

#: How much machine ids[0], the sender below, knows: its ring neighbours
#: (the fast guard converts its payloads to masks), or every machine but
#: ids[32] and ids[33] (the guard probes sets instead).
_VIEWS = ("ring", "almost-all")


def _graph(ids, view):
    graph = _ring(ids)
    if view == "almost-all":
        graph[ids[0]] = set(ids) - {ids[0], ids[32], ids[33]}
    return graph


@pytest.mark.parametrize("space", sorted(_ID_SPACES))
@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("large", [False, True])
def test_carried_unlearned_real_id_violation_matches(space, view, large):
    ids = _ID_SPACES[space]
    sender, peer, stranger = ids[0], ids[1], ids[32]
    # A large payload takes the numpy conversion, a small one the sums.
    payload = (peer,) * (5000 if large else 1) + (stranger,)
    texts = _violation_texts(_graph(ids, view), {(1, sender): [(peer, payload)]})
    assert texts["legacy"] == texts["fast"]
    assert f"carries unknown id {stranger}" in texts["legacy"]


@pytest.mark.parametrize("space", sorted(_ID_SPACES))
@pytest.mark.parametrize("view", _VIEWS)
def test_unknown_real_recipient_violation_matches(space, view):
    ids = _ID_SPACES[space]
    sender, peer, stranger = ids[0], ids[1], ids[32]
    texts = _violation_texts(_graph(ids, view), {(1, sender): [(stranger, (peer,))]})
    assert texts["legacy"] == texts["fast"]
    assert f"to unknown node {stranger}" in texts["legacy"]


@pytest.mark.parametrize("padding", [0, 100])
def test_violation_after_fresh_learning_reads_current_knowledge(padding):
    # Round 1 teaches machine 0 about machine 2.  In round 2 machine 0's
    # first message is legal only through that learning and its second is
    # illegal: a reference scan on stale knowledge would blame the first.
    # A chain of extra machines past 3 sends machine 0 from the guard's
    # set-probe route to its mask conversion.
    n = 4 + padding
    graph = {node: {node - 1, node + 1} & set(range(n)) for node in range(n)}
    graph[2] = {1, 3}
    graph[3] = {2} | ({4} if padding else set())
    graph[0] = {1}
    script = {
        (1, 1): [(0, (2,))],
        (2, 0): [(2, (1,)), (1, (3,))],
    }
    texts = _violation_texts(graph, script)
    assert texts["legacy"] == texts["fast"]
    assert "carries unknown id 3" in texts["legacy"]


@pytest.mark.parametrize("space", sorted(_ID_SPACES))
@pytest.mark.parametrize("view", _VIEWS)
def test_shared_and_duplicate_payloads_are_legal_and_identical(space, view):
    ids = _ID_SPACES[space]
    graph = {node: set(ids) - {node} for node in ids[:8]}
    graph.update(_ring(ids[8:]))
    graph[ids[8]] |= {ids[0]}
    if view == "almost-all":
        graph[ids[0]] = set(ids) - {ids[0], ids[32], ids[33]}
    shared = frozenset(ids[:8])
    script = {
        # One payload object carried to several recipients.
        (1, ids[0]): [(ids[k], shared) for k in (1, 2, 3, 8)],
        # Tuples with duplicate ids, small (sums) and large (numpy).
        (1, ids[1]): [(ids[9], (ids[2], ids[2], ids[3]))],
        (2, ids[8]): [(ids[9], (ids[4],) * 3000 + (ids[5],) * 3000)],
    }
    engines = [_scripted_engine(graph, script, b) for b in ("legacy", "fast")]
    for _ in range(3):
        digests = set()
        for engine in engines:
            engine.step()
            digests.add(engine.knowledge_digest())
        assert len(digests) == 1
    assert ids[5] in engines[1].knowledge[ids[9]]
    assert dict(engines[0].knowledge) == dict(engines[1].knowledge)


@pytest.mark.parametrize("space", sorted(_ID_SPACES))
@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("bad", [-1, -(2**70), 2**63, 2**64 + 5])
@pytest.mark.parametrize("large", [False, True])
def test_out_of_range_ids_raise_protocol_violation(space, view, bad, large):
    ids = _ID_SPACES[space]
    payload = (ids[1],) * (5000 if large else 1) + (bad,)
    texts = _violation_texts(_graph(ids, view), {(1, ids[0]): [(ids[1], payload)]})
    assert texts["legacy"] == texts["fast"]
    assert f"carries unknown id {bad}" in texts["legacy"]


@pytest.mark.parametrize("space", sorted(_ID_SPACES))
@pytest.mark.parametrize(
    "make_bad",
    [lambda ids: 5.5, lambda ids: "5", lambda ids: ids[1] + 0.5, lambda ids: str(ids[1])],
    ids=["5.5", "str-5", "neighbour-plus-half", "str-neighbour"],
)
@pytest.mark.parametrize("view", _VIEWS)
@pytest.mark.parametrize("large", [False, True])
def test_non_integer_ids_raise_protocol_violation(space, make_bad, view, large):
    # int() would read the last two as the sender's neighbour ids[1],
    # which it may name; only an id equal to a machine's id names it.
    ids = _ID_SPACES[space]
    bad = make_bad(ids)
    payload = (ids[1],) * (5000 if large else 1) + (bad,)
    texts = _violation_texts(_graph(ids, view), {(1, ids[0]): [(ids[1], payload)]})
    assert texts["legacy"] == texts["fast"]
    assert f"carries unknown id {bad}" in texts["legacy"]


class _LiveKnownNode(ProtocolNode):
    """Sends its own live ``known`` set, not a copy, to every machine it
    knows.  The set grows while the round's deliveries run; the message
    must carry what the sender knew when it built it."""

    def on_round(self, round_no, inbox, rng):
        for peer in sorted(self.known - {self.node_id}):
            self.send(peer, "live", ids=self.known)


@pytest.mark.parametrize("space", ["dense", "random"])
def test_mutable_payload_is_frozen_when_the_message_is_built(space):
    # At n = 96 the first rounds' senders miss too many machines for the
    # mask guard's set-probe route, so their payloads are converted to
    # masks.
    graph = make_topology("kout", 96, seed=3, k=2, id_space=space)
    engines = [
        SynchronousEngine(graph, _LiveKnownNode, seed=1, backend=backend)
        for backend in ("legacy", "fast")
    ]
    for _ in range(3):
        digests = set()
        for engine in engines:
            engine.step()
            digests.add(engine.knowledge_digest())
        assert len(digests) == 1
    assert dict(engines[0].knowledge) == dict(engines[1].knowledge)


@pytest.mark.parametrize("backend", ["legacy", "fast"])
def test_an_id_crosses_one_hop_per_round(backend):
    # Round 1 delivers 0 -> 1 before 1 -> 2.  Node 1 sent its known set
    # {1, 2} before it learned 0, so node 2 must not learn 0 in round 1.
    graph = {0: {1}, 1: {2}, 2: set()}
    engine = SynchronousEngine(graph, _LiveKnownNode, seed=1, backend=backend)
    engine.step()
    assert engine.knowledge[2] == {1, 2}
    assert engine.nodes[2].known == {1, 2}


class TestBackendSelection:
    @pytest.mark.parametrize("backend", ["turbo", "vector"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(ValueError, match="unknown backend"):
            SynchronousEngine({0: {1}, 1: {0}}, _noop_factory,
                              backend=backend)

    def test_explicit_backend_wins_over_fast_path(self):
        engine = SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True,
            backend="legacy",
        )
        assert engine.backend == "legacy"

    def test_fast_path_flag_resolves_backend(self):
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True
        ).backend == "fast"
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory
        ).backend == "legacy"

    def test_missing_numpy_raises_clear_error(self, monkeypatch):
        import repro
        import repro.sim.mask_store as mask_store

        monkeypatch.setattr(mask_store, "np", None)
        assert not mask_store.numpy_available()
        with pytest.raises(ImportError, match="'fast' engine backend requires numpy"):
            SynchronousEngine({0: {1}, 1: {0}}, _noop_factory, backend="fast")
        # The legacy reference store runs without numpy, and the default
        # choices fall back to it.
        SynchronousEngine({0: {1}, 1: {0}}, _noop_factory, backend="legacy")
        assert SynchronousEngine(
            {0: {1}, 1: {0}}, _noop_factory, fast_path=True
        ).backend == "legacy"
        graph = make_topology("kout", 16, seed=1, k=3)
        assert repro.discover(graph, algorithm="namedropper", seed=1).completed


def _noop_factory(node_id):
    class Quiet(ProtocolNode):
        def on_round(self, round_no, inbox, rng):
            pass

    return Quiet(node_id)
