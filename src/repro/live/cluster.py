"""Orchestrate a live cluster and hold it to the simulator's answer.

:class:`LiveCluster` spins up one :class:`~repro.live.node.LiveNodeRuntime`
per machine of a generated topology, all on loopback with ephemeral
ports (two-phase start: bind every server first, then publish the full
directory), runs discovery to closure or for an exact round budget, and
reduces the final state to the shared cross-host digest.

:func:`reference_digest` runs the same ``(topology, algorithm, seed)``
through :class:`~repro.sim.engine.SynchronousEngine` — closure mode
mirrors ``engine.run``; exact-round mode steps the engine the same
number of rounds the cluster ran, which is the *strict* form of the
cross-host check (mid-run states are only equal if every round matched
bit for bit, whereas completed runs all share the complete-knowledge
digest).

Fault runs extend the same contract: a :class:`~repro.live.faults
.LiveFaultPlan` on the spec kills live nodes at scheduled round
boundaries, and the reference engine runs under the equivalent
:class:`~repro.sim.faults.FaultPlan` with a survivors-know-everyone
goal.  Both hosts freeze a victim at the top of its crash round, so the
digest comparison holds over the full fleet *and* over the survivor
slice (``survivors_only`` — what a real ``kill -9`` leaves observable).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..algorithms.registry import get_algorithm
from ..graphs.generators import make_topology
from ..graphs.knowledge import digest_knowledge
from ..sim.engine import SynchronousEngine, default_max_rounds
from ..sim.rng import derive_rng
from .faults import LiveFaultPlan
from .node import LiveNodeRuntime


@dataclass(frozen=True)
class ClusterSpec:
    """Everything that determines a live run (and its sim reference)."""

    n: int = 8
    topology: str = "kout"
    algorithm: str = "sublog"
    seed: int = 0
    #: Exact round budget.  ``None`` runs to closure; a number runs
    #: precisely that many rounds with closure-stopping disabled, for
    #: strict mid-run digest comparison.
    rounds: Optional[int] = None
    max_rounds: Optional[int] = None
    host: str = "127.0.0.1"
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Scheduled live crashes (and optional service-plane restarts).
    fault_plan: Optional[LiveFaultPlan] = None
    #: Per-round marker-wait deadline; ``None`` derives a default from
    #: the round budget, ``0`` or negative waits forever.
    marker_timeout: Optional[float] = None

    def build_graph(self):
        return make_topology(self.topology, self.n, seed=self.seed)

    def node_factory(self):
        return get_algorithm(self.algorithm).node_factory(**dict(self.params))

    def round_budget(self) -> int:
        if self.rounds is not None:
            return self.rounds
        if self.max_rounds is not None:
            return self.max_rounds
        return default_max_rounds(self.n)


@dataclass(frozen=True)
class ClusterReport:
    """Outcome of one live discovery run.

    Under a fault plan, ``complete`` and ``digest`` describe the
    *survivors* (crashed nodes can neither finish nor be read after a
    real kill); ``survivors``/``crashed`` record the fleet split.  With
    no faults the survivor set is the whole fleet and the semantics are
    unchanged.
    """

    n: int
    algorithm: str
    seed: int
    rounds: int
    complete: bool
    digest: str
    messages: int
    survivors: Tuple[int, ...] = ()
    crashed: Tuple[int, ...] = ()


class LiveCluster:
    """A loopback fleet of live nodes running one discovery protocol."""

    def __init__(self, spec: ClusterSpec) -> None:
        self.spec = spec
        self.graph = spec.build_graph()
        factory = spec.node_factory()
        plan = spec.fault_plan or LiveFaultPlan()
        unknown = sorted(set(plan.crash_rounds) - set(self.graph.node_ids))
        if unknown:
            raise ValueError(f"fault plan kills non-existent nodes: {unknown}")
        self.fault_plan = plan
        self.nodes: Dict[int, LiveNodeRuntime] = {}
        for node_id in self.graph.node_ids:
            protocol = factory(node_id)
            # The node's row: a plain set its runtime writes.
            known = set(self.graph.out(node_id))
            known.add(node_id)
            protocol.bind(known, derive_rng(spec.seed, "node", node_id))
            runtime = LiveNodeRuntime(
                protocol,
                self.graph.n,
                seed=spec.seed,
                host=spec.host,
                marker_timeout=spec.marker_timeout,
            )
            runtime.crash_at_round = plan.crash_rounds.get(node_id)
            self.nodes[node_id] = runtime

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return [
            (runtime.host, runtime.port)
            for runtime in self.nodes.values()
            if runtime.port is not None
        ]

    def survivor_ids(self) -> Tuple[int, ...]:
        return tuple(
            node_id
            for node_id in sorted(self.nodes)
            if self.nodes[node_id].crashed_at is None
        )

    def crashed_ids(self) -> Tuple[int, ...]:
        return tuple(
            node_id
            for node_id in sorted(self.nodes)
            if self.nodes[node_id].crashed_at is not None
        )

    async def start(self) -> None:
        """Bind every server, then publish the completed directory."""
        directory: Dict[int, Tuple[str, int]] = {}
        for node_id, runtime in self.nodes.items():
            directory[node_id] = await runtime.start()
        for runtime in self.nodes.values():
            runtime.set_directory(directory)

    async def run_discovery(self) -> ClusterReport:
        spec = self.spec
        budget = spec.round_budget()
        stop_on_closure = spec.rounds is None
        tasks = [
            asyncio.create_task(
                runtime.run_discovery(budget, stop_on_closure=stop_on_closure),
                name=f"live-node-{node_id}",
            )
            for node_id, runtime in self.nodes.items()
        ]
        try:
            await asyncio.gather(*tasks)
        except BaseException:
            # One node's crash must fail the run, not strand the
            # siblings mid-marker-wait forever: cancel the fleet, wait
            # for the cancellations to land, then surface the original.
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        for node_id in self.fault_plan.restart:
            await self.nodes[node_id].restart_service()
        survivors = self.survivor_ids()
        return ClusterReport(
            n=self.graph.n,
            algorithm=spec.algorithm,
            seed=spec.seed,
            rounds=max(
                (self.nodes[node_id].rounds_run for node_id in survivors),
                default=0,
            ),
            complete=bool(survivors)
            and all(self.nodes[node_id].complete for node_id in survivors),
            digest=self.digest(survivors_only=True),
            messages=sum(
                runtime.context.metrics.total_messages
                for runtime in self.nodes.values()
            ),
            survivors=survivors,
            crashed=self.crashed_ids(),
        )

    def knowledge(self, *, survivors_only: bool = False) -> Dict[int, Set[int]]:
        """Each node's row, the set its runtime writes; do not write it."""
        return {
            node_id: runtime.known
            for node_id, runtime in self.nodes.items()
            if not (survivors_only and runtime.crashed_at is not None)
        }

    def digest(self, *, survivors_only: bool = False) -> str:
        return digest_knowledge(self.knowledge(survivors_only=survivors_only))

    async def close(self) -> None:
        """Tear every node down; one node's failure must not skip the rest."""
        results = await asyncio.gather(
            *(runtime.close() for runtime in self.nodes.values()),
            return_exceptions=True,
        )
        failures = [r for r in results if isinstance(r, BaseException)]
        if failures:
            raise failures[0]


async def run_cluster(spec: ClusterSpec) -> ClusterReport:
    """Start, run to the spec's budget, and tear down one cluster."""
    cluster = LiveCluster(spec)
    await cluster.start()
    try:
        return await cluster.run_discovery()
    finally:
        await cluster.close()


def _survivors_complete_goal(engine: SynchronousEngine) -> bool:
    """Every alive node knows all n ids — the live survivors' closure rule.

    Crashed ids still count as knowledge (a survivor learns a dead
    node's id the same way it learns a live one's), which is exactly the
    live runtime's ``len(known) >= n`` completion test restricted to the
    nodes that can still act.
    """
    knowledge = engine.knowledge
    return all(len(knowledge[node]) == engine.n for node in engine.alive_nodes)


def reference_digest(spec: ClusterSpec, rounds: Optional[int] = None) -> Tuple[str, int]:
    """Simulator digest for *spec*: ``(digest, rounds_executed)``.

    With *rounds* (or ``spec.rounds``) set, the engine is stepped exactly
    that many times — the strict mid-run comparison.  Otherwise the
    engine runs to its goal under the same round budget the cluster had.

    When the spec carries a fault plan, the engine runs under the
    equivalent :class:`~repro.sim.faults.FaultPlan` with the
    survivors-know-everyone goal, and the returned digest covers the
    *survivors only* — the slice :meth:`LiveCluster.digest`
    (``survivors_only=True``) and :attr:`ClusterReport.digest` expose.
    """
    plan = spec.fault_plan or LiveFaultPlan()
    engine = SynchronousEngine(
        spec.build_graph(),
        spec.node_factory(),
        seed=spec.seed,
        goal=_survivors_complete_goal if plan.has_faults else "strong",
        algorithm_name=spec.algorithm,
        params=dict(spec.params),
        fault_plan=plan.to_sim_plan() if plan.has_faults else None,
    )
    exact = rounds if rounds is not None else spec.rounds
    if exact is not None:
        for _ in range(exact):
            engine.step()
    else:
        engine.run(max_rounds=spec.round_budget())
    if plan.has_faults:
        knowledge = engine.knowledge
        digest = digest_knowledge(
            {node: knowledge[node] for node in engine.alive_nodes}
        )
        return digest, engine.round_no
    return engine.knowledge_digest(), engine.round_no
