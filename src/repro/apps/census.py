"""Global aggregates at weak-discovery cost.

Many coordination tasks need only a *summary* of the fleet — how many
machines exist, the extreme identifiers (classic leader election), a
seeded sample for monitoring.  All of these are computable by the
coordinator that weak discovery produces, for O(n·polylog) pointers,
without ever paying the Θ(n²) bill of full (strong) discovery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..algorithms.registry import get_algorithm
from ..graphs.knowledge import KnowledgeGraph
from ..sim.engine import SynchronousEngine
from ..sim.metrics import RunResult
from ..sim.rng import derive_rng


@dataclass(frozen=True)
class Census:
    """Fleet summary computed by the discovery coordinator."""

    coordinator: int
    count: int
    min_id: int
    max_id: int
    sample: Tuple[int, ...]
    discovery: RunResult

    @property
    def elected_leader(self) -> int:
        """Smallest identifier — the classic deterministic election rule."""
        return self.min_id


def discovery_params(algorithm: str, delivery: Optional[str]) -> dict:
    """Per-algorithm engine params for an app-level discovery run.

    The sublog variants run coordinator-only completion (the weak goal
    needs no completion broadcast — a knob only that family has) and,
    under a hostile delivery model, every algorithm gets its registered
    ``hostile_params`` hardening — the same policy the CLI applies.
    """
    params: dict = (
        {"completion": "none"} if algorithm in ("sublog", "sublogcoin") else {}
    )
    if delivery is not None and delivery != "lockstep":
        params.update(get_algorithm(algorithm).hostile_params)
    return params


def weak_discovery(
    graph: KnowledgeGraph,
    seed: int,
    algorithm: str,
    max_rounds: Optional[int],
    delivery: Optional[str],
) -> Tuple[RunResult, int, List[int]]:
    """Run weak discovery on *graph* with *algorithm* on the default store.

    Returns the run's result, its coordinator and the coordinator's
    roster, ascending.  ``max_rounds`` overrides the algorithm's round
    cap; ``delivery`` is a delivery-model spec string (``None`` =
    lockstep), see :func:`repro.sim.transport.parse_delivery`.

    Raises:
        RuntimeError: If discovery does not complete within the cap.
    """
    spec = get_algorithm(algorithm)
    params = discovery_params(algorithm, delivery)
    engine = SynchronousEngine(
        graph,
        spec.node_factory(**params),
        seed=seed,
        goal="weak",
        delivery=delivery,
        fast_path=True,
        algorithm_name=algorithm,
        params=params,
    )
    cap = max_rounds if max_rounds is not None else spec.round_cap(graph.n)
    result = engine.run(max_rounds=cap)
    if not result.completed:
        raise RuntimeError(f"weak discovery did not complete within {cap} rounds")
    coordinator = engine.weak_leader()
    assert coordinator is not None
    return result, coordinator, sorted(engine.knowledge[coordinator])


def leader_census(
    graph: KnowledgeGraph,
    seed: int = 0,
    algorithm: str = "sublog",
    sample_size: int = 5,
    max_rounds: Optional[int] = None,
    delivery: Optional[str] = None,
) -> Census:
    """Run weak discovery on *graph* and summarize the fleet.

    Args:
        graph: Weakly connected initial knowledge graph.
        seed: Master seed (drives discovery and the census sample).
        algorithm: Discovery algorithm (``sublog`` by default).
        sample_size: Size of the deterministic random sample included in
            the census (capped at the fleet size).
        max_rounds: Round cap override.
        delivery: Delivery-model spec string (``None`` = lockstep); see
            :func:`repro.sim.transport.parse_delivery`.

    Raises:
        RuntimeError: If discovery does not complete within the cap.
    """
    if sample_size < 0:
        raise ValueError(f"sample_size must be >= 0, got {sample_size}")
    result, coordinator, roster = weak_discovery(graph, seed, algorithm, max_rounds, delivery)
    rng = derive_rng(seed, "census-sample")
    size = min(sample_size, len(roster))
    sample = tuple(sorted(rng.sample(roster, size))) if size else ()
    return Census(
        coordinator=coordinator,
        count=len(roster),
        min_id=roster[0],
        max_id=roster[-1],
        sample=sample,
        discovery=result,
    )
