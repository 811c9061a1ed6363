"""Tests for the synthetic steady-state benchmark kernel.

The kernel's whole value is that its injected state and scheduled
traffic are *backend-equivalent*: a timing comparison between backends
is meaningless unless all three execute the identical workload.  These
tests pin that equivalence at small n (digest-per-round), plus the
injection invariants the large-n rows rely on.
"""

from __future__ import annotations

import pytest

from repro.bench.steady import (
    SteadySpec,
    build_steady_engine,
    inject_steady_state,
    laggard_missing,
    ring_adjacency,
    run_steady_window,
)
from repro.sim import BACKENDS, SynchronousEngine, vector_available

SPECS = {
    "sparse": SteadySpec(
        n=96, window=4, senders_per_round=24, pointers_per_message=16,
        laggards=8, missing_per_laggard=12, seed=11,
    ),
    "full-payload": SteadySpec(
        n=96, window=3, laggards=8, missing_per_laggard=12, seed=7,
    ),
    "shared-missing": SteadySpec(
        n=96, window=2, senders_per_round=32, laggards=40,
        missing_per_laggard=30, shared_missing=True, seed=5,
    ),
    "odd-n": SteadySpec(
        n=77, window=3, senders_per_round=20, pointers_per_message=9,
        laggards=5, missing_per_laggard=7, seed=3,
    ),
}


def _backends():
    return [b for b in BACKENDS if b != "vector" or vector_available()]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_backends_digest_identical(name):
    spec = SPECS[name]
    digests = {b: run_steady_window(spec, b) for b in _backends()}
    reference = digests["legacy"]
    assert len(reference) == spec.window
    for backend, rounds in digests.items():
        assert rounds == reference, backend


def test_injection_matches_counters():
    spec = SPECS["shared-missing"]
    for backend in _backends():
        engine, _ = build_steady_engine(spec, backend)
        complete = sum(
            1 for known in engine.knowledge.values() if len(known) == spec.n
        )
        assert engine.store.complete_count == complete
        assert complete == spec.n - spec.laggards
        assert engine.weak_leader() == 0  # id 0 is never in a missing sample


def test_injection_updates_the_rows_nodes_hold():
    # Injection overwrites the state in place: the rows the nodes were
    # bound to before it read the injected knowledge.
    spec = SPECS["sparse"]
    missing = laggard_missing(spec)
    for backend in _backends():
        engine, _ = build_steady_engine(spec, backend)
        for node in (0, spec.n - 1):
            row = engine.nodes[node].known
            assert row is engine.knowledge[node]
            assert set(row) == set(range(spec.n)) - missing.get(node, set())


def test_laggards_learn_during_window():
    spec = SPECS["full-payload"]
    for backend in _backends():
        engine, _ = build_steady_engine(spec, backend)
        before = engine.store.complete_count
        for _ in range(spec.window):
            engine.step()
        assert engine.store.complete_count > before


def test_window_pointer_count_matches_metrics():
    spec = SPECS["sparse"]
    engine, window_pointers = build_steady_engine(spec, "legacy")
    for _ in range(spec.window):
        engine.step()
    assert engine.metrics.total_pointers == window_pointers


def test_injection_rejected_with_enforcement():
    spec = SPECS["sparse"]
    engine = SynchronousEngine(
        ring_adjacency(spec.n), _quiet_factory, enforce_legality=True
    )
    with pytest.raises(ValueError, match="enforce_legality"):
        inject_steady_state(engine, laggard_missing(spec))


def test_shared_missing_is_one_object():
    spec = SPECS["shared-missing"]
    missing = laggard_missing(spec)
    samples = {id(sample) for sample in missing.values()}
    assert len(samples) == 1
    assert len(missing) == spec.laggards


def test_spec_memory_properties():
    spec = SteadySpec(n=100_000)
    assert spec.bytes_per_node == 12_500
    assert spec.matrix_mb == pytest.approx(1192.1, abs=0.1)


def _quiet_factory(node_id):
    from repro.sim.node import ProtocolNode

    class Quiet(ProtocolNode):
        def on_round(self, round_no, inbox, rng):
            pass

    return Quiet(node_id)
