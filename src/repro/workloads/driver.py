"""Replaying a demand trace through the synchronous engine.

The driver turns the three event kinds of a
:class:`~repro.workloads.trace.Trace` into the engine's existing seams:

* **crash events** are synthesized into a
  :class:`repro.sim.faults.FaultPlan` (:func:`fault_plan_from_trace`),
  so correlated regional failures ride the same injection path as every
  other fault experiment;
* **edge events** become out-of-band knowledge injections
  (:meth:`repro.sim.engine.SynchronousEngine.inject_knowledge`) applied
  at the start of their round — the dynamic-graph mode;
* **lookup events** are read-only demand, evaluated against ground-truth
  knowledge by :class:`LookupLoadObserver`: a lookup is *served* once
  its attach machine knows its target, and the observer records how many
  rounds late each request was, split by popularity decile.

Trace events use dense indices ``0 .. n-1``; the driver maps index ``i``
to the ``i``-th smallest machine id of the replayed graph, so one trace
is portable across id namespaces.  Replay is deterministic: the same
(trace, algorithm, graph, seed) reaches the same knowledge digest on
every engine backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..algorithms import get_algorithm
from ..graphs import KnowledgeGraph, make_topology
from ..sim.engine import SynchronousEngine
from ..sim.faults import FaultPlan
from ..sim.metrics import RunResult
from ..sim.observers import Observer
from ..sim.transport import DeliveryModel
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    pass

#: Popularity is split into this many demand buckets (decile 0 = hottest).
POPULARITY_DECILES = 10


def popularity_deciles(trace: Trace) -> Dict[int, int]:
    """Map each looked-up target (dense index) to its popularity decile.

    Targets are ranked by total demand (ties broken by index for
    determinism); decile 0 holds the hottest tenth of the *looked-up*
    targets.  Machines receiving no demand are absent.
    """
    counts = trace.lookup_counts()
    ranked = sorted(counts, key=lambda target: (-counts[target], target))
    total = len(ranked)
    return {
        target: min(
            POPULARITY_DECILES - 1, rank * POPULARITY_DECILES // total
        )
        for rank, target in enumerate(ranked)
    }


def fault_plan_from_trace(
    trace: Trace, node_ids: Optional[Sequence[int]] = None
) -> Optional[FaultPlan]:
    """Synthesize a :class:`FaultPlan` from a trace's crash events.

    *node_ids* (sorted machine ids of the replayed graph) translates
    dense victim indices into machine ids; omitted, victims keep their
    dense indices (correct for dense id spaces).  Returns ``None`` when
    the trace schedules no crashes.  A machine crashing twice is a
    malformed trace and raises.
    """
    crash_rounds: Dict[int, int] = {}
    for event in trace.events_of("crash"):
        victim = node_ids[event.node] if node_ids is not None else event.node
        if victim in crash_rounds:
            raise ValueError(f"trace crashes machine {victim} twice")
        crash_rounds[victim] = event.round_no
    if not crash_rounds:
        return None
    return FaultPlan(crash_rounds=crash_rounds, seed=trace.seed)


def knowledge_injections(
    trace: Trace, node_ids: Optional[Sequence[int]] = None
) -> Dict[int, List[Tuple[int, Tuple[int, ...]]]]:
    """Group edge events into a per-round injection schedule.

    Returns ``{round_no: [(machine, new_contact_ids), ...]}`` with
    deterministic ordering (machines ascending, targets ascending),
    translated through *node_ids* when given.
    """
    staged: Dict[int, Dict[int, List[int]]] = {}
    for event in trace.events_of("edge"):
        node = node_ids[event.node] if node_ids is not None else event.node
        target = node_ids[event.target] if node_ids is not None else event.target
        staged.setdefault(event.round_no, {}).setdefault(node, []).append(target)
    return {
        round_no: [
            (node, tuple(sorted(set(targets))))
            for node, targets in sorted(by_node.items())
        ]
        for round_no, by_node in sorted(staged.items())
    }


class LookupLoadObserver(Observer):
    """Evaluates a trace's lookup demand against ground-truth knowledge.

    A lookup ``(round r, attach a, target t)`` is *served at arrival* if
    machine ``a`` knows ``t`` by the end of round ``r``; otherwise it
    stays pending and its service delay is the number of extra rounds
    until ``a`` learns ``t``.  Lookups attached to a crashed machine
    fail (a dead server answers nothing).  Lookups arriving after the
    run already stopped are evaluated against the final knowledge state
    with zero delay — by then the fleet is in steady state.
    """

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self._deciles = popularity_deciles(trace)
        # (arrival, attach, target, decile) in dense coordinates until setup.
        self._schedule: Dict[int, List[Tuple[int, int, int]]] = {}
        self._pending: List[Tuple[int, int, int, int]] = []
        self._delays: List[int] = []
        self._decile_requests: Dict[int, int] = {}
        self._decile_hits: Dict[int, int] = {}
        self._decile_delays: Dict[int, List[int]] = {}
        self.requests = 0
        self.served_at_arrival = 0
        self.served = 0
        self.failed = 0
        self.unserved = 0
        self._node_ids: Sequence[int] = ()

    def on_setup(self, engine: "SynchronousEngine") -> None:
        node_ids = engine.node_ids
        if self.trace.n != engine.n:
            raise ValueError(
                f"trace built for n={self.trace.n} replayed against n={engine.n}"
            )
        self._node_ids = node_ids
        for event in self.trace.events_of("lookup"):
            decile = self._deciles[event.target]
            self._schedule.setdefault(event.round_no, []).append(
                (node_ids[event.node], node_ids[event.target], decile)
            )
            self.requests += 1
            self._decile_requests[decile] = self._decile_requests.get(decile, 0) + 1

    # -- evaluation ----------------------------------------------------------------

    def _record(self, decile: int, delay: int) -> None:
        self.served += 1
        self._delays.append(delay)
        self._decile_delays.setdefault(decile, []).append(delay)
        if delay == 0:
            self.served_at_arrival += 1
            self._decile_hits[decile] = self._decile_hits.get(decile, 0) + 1

    def on_round_end(self, engine: "SynchronousEngine", round_no: int) -> None:
        arrivals = self._schedule.pop(round_no, ())
        if not arrivals and not self._pending:
            return
        knowledge = engine.knowledge
        crashed = engine.crashed_nodes
        still_pending: List[Tuple[int, int, int, int]] = []
        for arrival, attach, target, decile in self._pending:
            if attach in crashed:
                self.failed += 1
            elif target in knowledge[attach]:
                self._record(decile, round_no - arrival)
            else:
                still_pending.append((arrival, attach, target, decile))
        self._pending = still_pending
        for attach, target, decile in arrivals:
            if attach in crashed:
                self.failed += 1
            elif target in knowledge[attach]:
                self._record(decile, 0)
            else:
                self._pending.append((round_no, attach, target, decile))

    def on_finish(self, engine: "SynchronousEngine", completed: bool) -> None:
        # Pending lookups the run never satisfied.
        self.unserved += len(self._pending)
        self._pending = []
        # Demand scheduled past the final round: the run is over, so the
        # knowledge state these lookups see is the final one.
        knowledge = engine.knowledge
        crashed = engine.crashed_nodes
        for arrivals in self._schedule.values():
            for attach, target, decile in arrivals:
                if attach in crashed:
                    self.failed += 1
                elif target in knowledge[attach]:
                    self._record(decile, 0)
                else:
                    self.unserved += 1
        self._schedule = {}

    # -- reporting -----------------------------------------------------------------

    @staticmethod
    def _percentile(values: Sequence[int], fraction: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return float(ordered[index])

    def stats(self) -> Dict[str, Any]:
        by_decile: Dict[int, Dict[str, float]] = {}
        for decile in sorted(self._decile_requests):
            requests = self._decile_requests[decile]
            hits = self._decile_hits.get(decile, 0)
            delays = self._decile_delays.get(decile, [])
            by_decile[decile] = {
                "requests": requests,
                "served_at_arrival": hits / requests,
                "mean_delay": (sum(delays) / len(delays)) if delays else 0.0,
                "p95_delay": self._percentile(delays, 0.95),
            }
        return {
            "requests": self.requests,
            "served": self.served,
            "served_at_arrival": self.served_at_arrival,
            "failed": self.failed,
            "unserved": self.unserved,
            "mean_delay": (sum(self._delays) / len(self._delays))
            if self._delays
            else 0.0,
            "p95_delay": self._percentile(self._delays, 0.95),
            "by_decile": by_decile,
        }

    def extra(self) -> Dict[str, Any]:
        return {"lookup_load": self.stats()}


@dataclass(frozen=True)
class TraceRunReport:
    """Everything one trace replay produced."""

    result: RunResult
    lookups: Dict[str, Any]
    injected_contacts: int
    digest: str

    @property
    def served_at_arrival_fraction(self) -> float:
        requests = self.lookups["requests"]
        return self.lookups["served_at_arrival"] / requests if requests else 1.0


class TraceWorkload:
    """One trace bound to one replay configuration.

    Construction resolves the graph, fault plan, and injection schedule;
    :meth:`run` builds a fresh engine and replays — so the same workload
    object can be replayed on several backends for differential checks.
    """

    def __init__(
        self,
        trace: Trace,
        algorithm: str = "sublog",
        *,
        topology: str = "kout",
        graph: Optional[Union[KnowledgeGraph, Mapping[int, Iterable[int]]]] = None,
        seed: int = 0,
        goal: str = "strong",
        delivery: Optional[Union[str, DeliveryModel]] = None,
        include_faults: bool = True,
        topology_params: Optional[Mapping[str, Any]] = None,
        **params: Any,
    ) -> None:
        self.trace = trace
        self.algorithm = algorithm
        self.seed = seed
        self.goal = goal
        self.delivery = delivery
        self.params = dict(params)
        if graph is None:
            graph = make_topology(
                topology, trace.n, seed=seed, **dict(topology_params or {})
            )
        elif not isinstance(graph, KnowledgeGraph):
            graph = KnowledgeGraph(graph)
        if len(graph) != trace.n:
            raise ValueError(
                f"trace built for n={trace.n} replayed against a graph of "
                f"n={len(graph)}"
            )
        self.graph = graph
        node_ids = graph.node_ids
        self.fault_plan = (
            fault_plan_from_trace(trace, node_ids) if include_faults else None
        )
        self.injections = knowledge_injections(trace, node_ids)

    def run(
        self,
        *,
        backend: Optional[str] = None,
        enforce_legality: bool = True,
        max_rounds: Optional[int] = None,
        observers: Iterable[Observer] = (),
    ) -> TraceRunReport:
        """Replay the trace once; deterministic given the construction."""
        spec = get_algorithm(self.algorithm)
        lookup_observer = LookupLoadObserver(self.trace)
        engine = SynchronousEngine(
            self.graph,
            spec.node_factory(**self.params),
            seed=self.seed,
            goal=self.goal,
            fault_plan=self.fault_plan,
            delivery=self.delivery,
            observers=[lookup_observer, *observers],
            enforce_legality=enforce_legality,
            fast_path=True,
            backend=backend,
            algorithm_name=self.algorithm,
            params=self.params,
        )
        cap = max_rounds if max_rounds is not None else spec.round_cap(engine.n)
        injections = self.injections
        injected = 0
        completed = engine.goal_reached()
        while not completed and engine.round_no < cap:
            for node, contacts in injections.get(engine.round_no + 1, ()):
                if engine.inject_knowledge(node, contacts):
                    injected += len(contacts)
            engine.step()
            completed = engine.goal_reached()
        # Finalize through run(): with the cap already reached it executes
        # zero rounds but fires observer on_finish and builds the result.
        result = engine.run(max_rounds=engine.round_no)
        return TraceRunReport(
            result=result,
            lookups=lookup_observer.stats(),
            injected_contacts=injected,
            digest=engine.knowledge_digest(),
        )


def run_trace_workload(
    trace: Trace,
    algorithm: str = "sublog",
    *,
    backend: Optional[str] = None,
    enforce_legality: bool = True,
    max_rounds: Optional[int] = None,
    observers: Iterable[Observer] = (),
    **workload_kwargs: Any,
) -> TraceRunReport:
    """One-shot convenience wrapper: build a :class:`TraceWorkload`, run it."""
    workload = TraceWorkload(trace, algorithm, **workload_kwargs)
    return workload.run(
        backend=backend,
        enforce_legality=enforce_legality,
        max_rounds=max_rounds,
        observers=observers,
    )
