"""Unit tests for the pluggable delivery-model layer."""

from __future__ import annotations

import pickle

import pytest

import repro
from repro.graphs import make_topology
from repro.sim import SynchronousEngine
from repro.sim.metrics import DROP_PARTITION
from repro.sim.trace import TraceObserver
from repro.sim.transport import (
    DELIVERY_MODELS,
    AdversarialScheduler,
    BoundedJitter,
    DeliveryModel,
    Lockstep,
    PartitionWindow,
    PerLinkLatency,
    parse_delivery,
)


class TestParseDelivery:
    def test_all_registered_families_parse(self):
        specs = {
            "lockstep": Lockstep,
            "jitter:2": BoundedJitter,
            "adversarial": AdversarialScheduler,
            "adversarial:3": AdversarialScheduler,
            "perlink": PerLinkLatency,
            "perlink:4": PerLinkLatency,
            "partition:3-6": PartitionWindow,
        }
        for spec, cls in specs.items():
            assert isinstance(parse_delivery(spec), cls), spec

    def test_registry_covers_every_family(self):
        assert set(DELIVERY_MODELS) == {
            "lockstep", "jitter", "adversarial", "perlink", "partition"
        }

    def test_arguments_are_threaded(self):
        assert parse_delivery("jitter:3").jitter == 3
        assert parse_delivery("adversarial:5").max_delay == 5
        assert parse_delivery("perlink:4").spread == 4
        window = parse_delivery("partition:3-6")
        assert (window.start, window.end) == (3, 6)

    def test_model_instances_pass_through(self):
        model = AdversarialScheduler(2)
        assert parse_delivery(model) is model

    @pytest.mark.parametrize(
        "bad",
        [
            "carrier-pigeon",
            "jitter",
            "jitter:-1",
            "jitter:abc",
            "lockstep:1",
            "partition:6",
            "partition:6-3",
            "partition:0-4",
            "adversarial:-1",
            "perlink:-2",
        ],
    )
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_delivery(bad)

    def test_describe_round_trips(self):
        for spec in ("lockstep", "jitter:2", "adversarial:3", "perlink:1",
                     "partition:3-6"):
            model = parse_delivery(spec)
            assert parse_delivery(model.describe()).describe() == model.describe()


class TestModelSemantics:
    def test_lockstep_is_uniform_one(self):
        assert Lockstep.uniform_delay == 1

    def test_jitter_zero_degenerates_to_uniform(self):
        assert BoundedJitter(0).uniform_delay == 1
        assert BoundedJitter(2).uniform_delay is None

    def test_adversarial_is_uniform_at_the_bound(self):
        assert AdversarialScheduler(3).uniform_delay == 4

    def test_perlink_delays_are_stable_within_a_run(self):
        graph = make_topology("kout", 16, seed=2, k=3)
        engine = SynchronousEngine(graph, _node_factory(), seed=9)
        bound = PerLinkLatency(spread=3).bind(engine)
        nodes = sorted(engine.node_ids)
        for sender, recipient in zip(nodes, nodes[1:]):
            first = bound.delay(sender, recipient, 1)
            assert 1 <= first <= 4
            assert bound.delay(sender, recipient, 7) == first

    def test_perlink_overrides_win(self):
        graph = {0: {1}, 1: {0}}
        engine = SynchronousEngine(graph, _node_factory(), seed=0)
        bound = PerLinkLatency(spread=3, delays={(0, 1): 9}).bind(engine)
        assert bound.delay(0, 1, 1) == 9

    def test_delay_bound_covers_every_drawn_delay(self):
        graph = make_topology("kout", 16, seed=2, k=3)
        engine = SynchronousEngine(graph, _node_factory(), seed=9)
        nodes = sorted(engine.node_ids)
        for model in (
            BoundedJitter(2),
            PerLinkLatency(spread=3),
            PerLinkLatency(spread=1, delays={(nodes[0], nodes[1]): 9}),
        ):
            bound = model.bind(engine)
            delays = {
                bound.delay(a, b, r) for a in nodes for b in nodes for r in (1, 2)
            }
            assert max(delays) == model.delay_bound

    def test_partition_default_group_is_lower_half(self):
        graph = {0: {1, 2, 3}, 1: {0}, 2: {0}, 3: {0}}
        engine = SynchronousEngine(graph, _node_factory(), seed=0)
        bound = PartitionWindow(2, 4).bind(engine)
        assert bound.drop_reason(0, 2, 3) == DROP_PARTITION  # cross
        assert bound.drop_reason(0, 1, 3) is None  # same side
        assert bound.drop_reason(0, 2, 5) is None  # window closed
        assert bound.drop_reason(0, 2, 1) is None  # window not open yet

    def test_binding_leaves_the_spec_clean(self):
        """A spec instance is reusable: binding must not leak per-run
        state into it, so one model can drive a whole sweep."""
        graph = make_topology("kout", 12, seed=1, k=2)
        spec = BoundedJitter(2)
        first = SynchronousEngine(
            graph, _node_factory(), seed=3, delivery=spec
        ).run(max_rounds=500)
        second = SynchronousEngine(
            graph, _node_factory(), seed=3, delivery=spec
        ).run(max_rounds=500)
        assert first == second
        assert not hasattr(spec, "_future")

    def test_specs_are_picklable(self):
        for spec in ("lockstep", "jitter:2", "adversarial:3", "perlink:2",
                     "partition:3-6"):
            model = parse_delivery(spec)
            clone = pickle.loads(pickle.dumps(model))
            assert clone.describe() == model.describe()


def _node_factory():
    from repro.algorithms.registry import get_algorithm

    return get_algorithm("namedropper").node_factory()


class TestEngineIntegration:
    def _run(self, delivery, algorithm="namedropper", n=20, **kwargs):
        graph = make_topology("kout", n, seed=6, k=3)
        return repro.discover(
            graph, algorithm=algorithm, seed=11, delivery=delivery,
            max_rounds=2000, **kwargs,
        )

    def test_lockstep_is_the_default(self):
        explicit = self._run("lockstep")
        implicit = self._run(None)
        assert explicit == implicit
        assert set(implicit.delivery_delays) == {1}
        assert implicit.delivery_delays[1] == implicit.messages

    def test_adversarial_slows_but_completes(self):
        baseline = self._run(None)
        hostile = self._run("adversarial:2")
        assert hostile.completed
        assert hostile.rounds > baseline.rounds
        assert set(hostile.delivery_delays) == {3}

    def test_jitter_histogram_spans_the_bound(self):
        result = self._run("jitter:2")
        assert result.completed
        assert set(result.delivery_delays) <= {1, 2, 3}
        assert sum(result.delivery_delays.values()) == result.messages

    def test_perlink_histogram_spans_the_spread(self):
        result = self._run("perlink:2")
        assert result.completed
        assert set(result.delivery_delays) <= {1, 2, 3}

    def test_partition_drops_are_reason_tagged(self):
        result = self._run("partition:2-5")
        assert result.completed
        assert result.dropped_by_reason.get("partition", 0) > 0
        assert result.dropped_messages == sum(result.dropped_by_reason.values())

    def test_partition_heals_after_window(self):
        """Discovery completes even when the partition window covers the
        rounds a lockstep run would have needed."""
        lockstep = self._run(None, algorithm="sublog")
        partition = self._run(
            f"partition:2-{lockstep.rounds + 2}",
            algorithm="sublog",
            resilient=True,
            stagnation_phases=4,
        )
        assert partition.completed
        assert partition.rounds > lockstep.rounds

    def test_trace_observer_records_delay_and_drop_reason(self):
        graph = make_topology("kout", 16, seed=3, k=3)
        observer = TraceObserver()
        result = repro.discover(
            graph, algorithm="namedropper", seed=5,
            delivery="partition:2-4", observers=[observer], max_rounds=2000,
        )
        assert result.completed
        delivered = result.messages - result.dropped_messages
        assert len(observer.events) == delivered
        assert len(observer.drops) == result.dropped_messages
        assert observer.drops_by_reason() == dict(result.dropped_by_reason)
        assert all(event.dropped is None for event in observer.events)
        assert all(event.delay == 1 for event in observer.events)

    def test_trace_observer_sees_jitter_delays(self):
        graph = make_topology("kout", 16, seed=3, k=3)
        observer = TraceObserver()
        result = repro.discover(
            graph, algorithm="namedropper", seed=5,
            delivery="jitter:2", observers=[observer], max_rounds=2000,
        )
        assert result.completed
        seen = {event.delay for event in observer.events}
        assert seen <= {1, 2, 3}
        assert len(seen) > 1  # jitter actually spread the deliveries

    def test_custom_model_subclass_plugs_in(self):
        class EvenOddLatency(DeliveryModel):
            name = "evenodd"

            def delay(self, sender, recipient, send_round):
                return 1 if recipient % 2 == 0 else 2

        result = self._run(EvenOddLatency())
        assert result.completed
        assert set(result.delivery_delays) <= {1, 2}
