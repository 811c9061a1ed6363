"""Behavioral tests for the swamping baseline."""

from __future__ import annotations

import math

import pytest

import repro
from repro.graphs import make_topology


class TestSwampingRounds:
    @pytest.mark.parametrize("n", (8, 32, 128))
    def test_logarithmic_rounds_on_path(self, n: int):
        graph = make_topology("path", n)
        result = repro.discover(graph, algorithm="swamping")
        assert result.completed
        # Graph squaring: ceil(log2(D)) + small constant.
        assert result.rounds <= math.ceil(math.log2(n)) + 3

    def test_saturates_the_doubling_bound(self):
        # On a path, swamping cannot beat ceil(log2 D) (ball containment);
        # it should land within a couple of rounds of it.
        graph = make_topology("path", 65)
        result = repro.discover(graph, algorithm="swamping")
        assert result.rounds >= math.ceil(math.log2(64))


class TestSwampingVariants:
    def test_delta_variant_same_rounds(self):
        for topo, n in (("kout", 96), ("path", 96), ("star_in", 64)):
            graph = make_topology(topo, n, seed=3)
            classic = repro.discover(graph, algorithm="swamping", full=True)
            delta = repro.discover(graph, algorithm="swamping", full=False)
            assert classic.completed and delta.completed
            assert classic.rounds == delta.rounds, topo

    def test_delta_variant_fewer_pointers(self):
        # The savings show on longer runs, where established peers stop
        # receiving the full set every round (on 3-round expander runs the
        # first-contact greetings dominate and the variants nearly tie).
        graph = make_topology("path", 96)
        classic = repro.discover(graph, algorithm="swamping", full=True)
        delta = repro.discover(graph, algorithm="swamping", full=False)
        assert delta.pointers < 0.7 * classic.pointers

    def test_classic_pointer_complexity_is_superquadratic(self):
        # The reason swamping is unaffordable: pointers blow past n^2.
        graph = make_topology("kout", 64, seed=1, k=3)
        result = repro.discover(graph, algorithm="swamping", full=True)
        assert result.pointers > 64**2

    def test_broadcast_shares_one_snapshot_object(self):
        # Memory contract: all recipients of one round receive the SAME
        # frozenset object (per-recipient copies were an n^3 memory bomb,
        # OOM-observed at n=1024 before the fix).
        import random

        from repro.algorithms.swamping import SwampingNode

        node = SwampingNode(1, full=True)
        node.bind({1, 2, 3, 4, 5}, random.Random(0))
        outbox = node.run_round(1, [])
        assert len(outbox) == 4
        first = outbox[0].ids
        assert all(message.ids is first for message in outbox)
