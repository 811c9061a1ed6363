"""Unit tests for the sweep runner."""

from __future__ import annotations

from repro.bench.runner import Case, build_graph, index_results, run_case, sweep
from repro.bench.sweeprun import SweepRunner


class TestCase:
    def test_display_defaults_to_algorithm(self):
        case = Case(algorithm="sublog", topology="kout", n=16, seed=1)
        assert case.display == "sublog"
        labeled = Case(
            algorithm="sublog", topology="kout", n=16, seed=1, label="variant-x"
        )
        assert labeled.display == "variant-x"

    def test_build_graph_uses_case_seed(self):
        case_a = Case(algorithm="sublog", topology="kout", n=24, seed=1)
        case_b = Case(algorithm="sublog", topology="kout", n=24, seed=2)
        assert build_graph(case_a) != build_graph(case_b)
        assert build_graph(case_a) == build_graph(case_a)


class TestRunCase:
    def test_runs_to_completion(self):
        case = Case(algorithm="sublog", topology="kout", n=24, seed=3)
        result = run_case(case)
        assert result.completed
        assert result.algorithm == "sublog"
        assert result.n == 24

    def test_params_reach_the_algorithm(self):
        case = Case(
            algorithm="sublog",
            topology="kout",
            n=24,
            seed=3,
            params={"completion": "none"},
            goal="weak",
        )
        result = run_case(case)
        assert result.completed
        assert result.messages_by_kind.get("roster", 0) == 0


class TestSweep:
    def test_matrix_shape(self):
        results = sweep(["sublog", "flooding"], "kout", [16, 24], [1, 2])
        assert len(results) == 2 * 2 * 2
        assert all(r.completed for r in results)

    def test_size_caps_skip_cells(self):
        results = sweep(
            ["sublog", "flooding"],
            "kout",
            [16, 24],
            [1],
            size_caps={"flooding": 16},
        )
        combos = {(r.algorithm, r.n) for r in results}
        assert ("flooding", 24) not in combos
        assert ("flooding", 16) in combos
        assert ("sublog", 24) in combos

    def test_shared_graph_across_algorithms(self):
        # Both algorithms must see identical inputs per (n, seed): check
        # via determinism — rerunning the sweep reproduces everything.
        a = sweep(["sublog", "namedropper"], "kout", [24], [5])
        b = sweep(["sublog", "namedropper"], "kout", [24], [5])
        assert [(r.rounds, r.messages) for r in a] == [
            (r.rounds, r.messages) for r in b
        ]

    def test_index_results(self):
        results = sweep(["sublog"], "kout", [16], [1, 2])
        indexed = index_results(results)
        assert set(indexed) == {("sublog", 16)}
        assert len(indexed[("sublog", 16)]) == 2


class TestSweepSeeds:
    def test_deterministic_and_distinct(self):
        from repro.bench.runner import sweep_seeds

        seeds_a = sweep_seeds(7, 8)
        seeds_b = sweep_seeds(7, 8)
        assert seeds_a == seeds_b
        assert len(set(seeds_a)) == 8
        assert all(0 <= seed < 2**32 for seed in seeds_a)
        assert sweep_seeds(8, 8) != seeds_a


class TestParallelSweep:
    def test_workers_match_serial_results(self):
        serial = sweep(["sublog", "namedropper"], "kout", [16, 24], [1, 2])
        parallel = sweep(
            ["sublog", "namedropper"],
            "kout",
            [16, 24],
            [1, 2],
            runner=SweepRunner(workers=2),
        )
        assert parallel == serial

    def test_single_worker_stays_serial(self):
        single = sweep(["flooding"], "kout", [16], [1], runner=SweepRunner(workers=1))
        assert single == sweep(["flooding"], "kout", [16], [1])

    def test_legacy_engine_sweep_matches_fast(self):
        fast = sweep(["namedropper"], "kout", [20], [3, 4])
        legacy = sweep(
            ["namedropper"], "kout", [20], [3, 4], runner=SweepRunner(backend="legacy")
        )
        assert fast == legacy


class TestDeliveryThreading:
    def test_case_delivery_reaches_the_engine(self):
        case = Case(
            algorithm="namedropper",
            topology="kout",
            n=20,
            seed=3,
            delivery="adversarial:2",
        )
        result = run_case(case)
        assert result.completed
        assert set(result.delivery_delays) == {3}

    def test_run_case_kwarg_overrides_case_delivery(self):
        case = Case(
            algorithm="namedropper",
            topology="kout",
            n=20,
            seed=3,
            delivery="adversarial:2",
        )
        overridden = run_case(case, delivery="lockstep")
        assert set(overridden.delivery_delays) == {1}

    def test_sweep_applies_delivery_to_every_cell(self):
        results = sweep(
            ["namedropper", "flooding"], "kout", [16], [1, 2],
            delivery="adversarial:1",
        )
        assert len(results) == 4
        assert all(set(r.delivery_delays) == {2} for r in results)

    def test_parallel_delivery_sweep_matches_serial(self):
        """Delivery specs must survive the pickle trip to sweep workers."""
        serial = sweep(
            ["namedropper"], "kout", [16, 20], [1, 2], delivery="perlink:2"
        )
        parallel = sweep(
            ["namedropper"], "kout", [16, 20], [1, 2], delivery="perlink:2",
            runner=SweepRunner(workers=2),
        )
        assert parallel == serial
