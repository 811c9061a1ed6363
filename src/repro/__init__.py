"""repro — a reproduction of "Distributed Resource Discovery in
Sub-Logarithmic Time" (Haeupler & Malkhi, PODC 2015).

Quickstart::

    import repro

    graph = repro.random_k_out(1024, seed=7, k=3)
    result = repro.discover(graph, algorithm="sublog", seed=7)
    print(result.rounds, result.messages)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
evaluation program.  The ⚠ note at the top of DESIGN.md documents that the
paper's own text was unavailable and how the reconstruction was scoped.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional, Union

from .algorithms import ALGORITHMS, algorithm_names, get_algorithm
from .core import ClusterSizeObserver, SubLogConfig, SubLogNode
from .oracle import InvariantOracle, OracleViolation, ScheduleScript
from .graphs import (
    ID_SPACES,
    TOPOLOGIES,
    KnowledgeGraph,
    make_topology,
    path,
    preferential_attachment,
    random_k_out,
)
from .sim import (
    DELIVERY_MODELS,
    AdversarialScheduler,
    BoundedJitter,
    DeliveryModel,
    FaultPlan,
    JoinPlan,
    KnowledgeSizeObserver,
    Lockstep,
    Message,
    Observer,
    PartitionWindow,
    PerLinkLatency,
    ProtocolNode,
    ProtocolViolation,
    RunResult,
    SynchronousEngine,
    TraceObserver,
    crash_fraction_plan,
    late_join_workload,
    parse_delivery,
)
from .workloads import (
    WORKLOADS,
    Trace,
    TraceWorkload,
    load_trace,
    make_workload,
    run_trace_workload,
    save_trace,
    workload_names,
)

try:  # single-source: pyproject.toml is authoritative once installed
    from importlib.metadata import PackageNotFoundError, version

    __version__ = version("repro")
except PackageNotFoundError:  # running from a source tree without install
    __version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "DELIVERY_MODELS",
    "ID_SPACES",
    "TOPOLOGIES",
    "AdversarialScheduler",
    "BoundedJitter",
    "ClusterSizeObserver",
    "DeliveryModel",
    "FaultPlan",
    "InvariantOracle",
    "JoinPlan",
    "KnowledgeGraph",
    "KnowledgeSizeObserver",
    "Lockstep",
    "Message",
    "Observer",
    "OracleViolation",
    "PartitionWindow",
    "PerLinkLatency",
    "ProtocolNode",
    "ProtocolViolation",
    "RunResult",
    "ScheduleScript",
    "SubLogConfig",
    "SubLogNode",
    "SynchronousEngine",
    "Trace",
    "TraceObserver",
    "TraceWorkload",
    "WORKLOADS",
    "__version__",
    "algorithm_names",
    "crash_fraction_plan",
    "discover",
    "get_algorithm",
    "late_join_workload",
    "load_trace",
    "make_topology",
    "make_workload",
    "parse_delivery",
    "path",
    "preferential_attachment",
    "random_k_out",
    "run_trace_workload",
    "save_trace",
    "workload_names",
]


def discover(
    graph: Union[KnowledgeGraph, Mapping[int, Iterable[int]]],
    algorithm: str = "sublog",
    *,
    seed: int = 0,
    goal: str = "strong",
    fault_plan: Optional[FaultPlan] = None,
    join_plan: Optional[JoinPlan] = None,
    delivery: Optional[Union[str, DeliveryModel]] = None,
    observers: Iterable[Observer] = (),
    max_rounds: Optional[int] = None,
    enforce_legality: bool = True,
    backend: Optional[str] = None,
    profile: bool = False,
    **params: Any,
) -> RunResult:
    """Run one resource-discovery protocol to completion.

    Args:
        graph: Initial knowledge graph (a :class:`KnowledgeGraph` or a
            mapping ``{node_id: out_neighbors}``).
        algorithm: Registry name — see :func:`algorithm_names`.
        seed: Master seed for all protocol and fault randomness.
        goal: ``"strong"``, ``"weak"``, or ``"strong_alive"``.
        fault_plan: Optional fault injection plan.
        join_plan: Optional dynamic-join plan (machines dormant until
            their join round — see :mod:`repro.sim.churn`).
        delivery: Delivery model — a
            :class:`repro.sim.transport.DeliveryModel` or a spec string
            such as ``"jitter:2"``, ``"adversarial:3"``, ``"perlink:2"``,
            or ``"partition:4-8"`` (see
            :func:`repro.sim.transport.parse_delivery`).  ``None`` means
            lockstep, the classic synchronous model.
        observers: Read-only run observers.
        max_rounds: Round cap; defaults to the algorithm's registered cap.
        enforce_legality: Verify every message against the communication
            model (default on; benchmarks may disable for speed).
        backend: Engine backend, ``"legacy"`` (the reference set
            store) or ``"fast"`` (the bitmask store, differential-tested
            bit-identical to it).  ``None`` (the default) means
            ``"fast"``.
        profile: Record per-phase engine timings into
            ``result.extra["phase_timings"]``.
        **params: Algorithm parameters (for ``sublog``/``detmerge`` these
            are :class:`SubLogConfig` fields; e.g. ``resilient=True``).

    Returns:
        The :class:`RunResult` with rounds/messages/pointers and any
        observer extras.
    """
    spec = get_algorithm(algorithm)
    engine = SynchronousEngine(
        graph,
        spec.node_factory(**params),
        seed=seed,
        goal=goal,
        fault_plan=fault_plan,
        join_plan=join_plan,
        delivery=delivery,
        observers=observers,
        enforce_legality=enforce_legality,
        fast_path=True,
        backend=backend,
        profile=profile,
        algorithm_name=algorithm,
        params=params,
    )
    n = engine.n
    cap = max_rounds if max_rounds is not None else spec.round_cap(n)
    return engine.run(max_rounds=cap)
