"""Replayable run scripts: the ``(config, seed, schedule)`` triple.

Every oracle failure must be reproducible from one serializable value.
:class:`ScheduleScript` is that value: it names the algorithm and input
graph (config), the master seed (seed), and the complete adversarial
environment — delivery model, loss rate, crash rounds, join rounds
(schedule).  The script builds its own engine deterministically, so a
violation report can embed the script as JSON and anyone can replay it
with :func:`ScheduleScript.from_dict` plus
:func:`repro.oracle.fuzzer.run_script` (or ``repro fuzz --replay``).

Scripts are frozen dataclasses; the fuzzer's shrinker derives candidate
simplifications with :func:`dataclasses.replace`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional

from ..algorithms.registry import get_algorithm
from ..graphs.generators import make_topology
from ..graphs.knowledge import KnowledgeGraph
from ..sim.churn import JoinPlan
from ..sim.engine import SynchronousEngine
from ..sim.faults import FaultPlan
from ..sim.observers import Observer

#: Schema version stamped into serialized scripts; bump on incompatible
#: field changes.
SCRIPT_SCHEMA = 1


@dataclass(frozen=True)
class ScheduleScript:
    """One fully-determined run of one algorithm under one schedule.

    Attributes:
        algorithm: Registry name (see :func:`repro.algorithm_names`).
        topology: Topology family name (see ``repro.TOPOLOGIES``).
        n: Number of machines.
        seed: Master seed — graph construction, protocol randomness, and
            loss coins all derive from it (plus ``fault_seed``).
        goal: Goal predicate name (``strong``/``weak``/``strong_alive``).
        delivery: Delivery-model spec string (``None`` = lockstep).
        loss_rate: Independent per-message drop probability.
        fault_seed: Sub-seed of the loss coin stream.
        crash_rounds: ``{node: round}`` fail-stop crash schedule.
        join_rounds: ``{node: round}`` late-join schedule.
        params: Algorithm parameters.
        topology_params: Extra keyword arguments of the topology builder.
        max_rounds: Round cap; ``None`` uses the algorithm's registered
            cap for ``n``.
    """

    algorithm: str
    topology: str
    n: int
    seed: int
    goal: str = "strong"
    delivery: Optional[str] = None
    loss_rate: float = 0.0
    fault_seed: int = 0
    crash_rounds: Mapping[int, int] = field(default_factory=dict)
    join_rounds: Mapping[int, int] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    max_rounds: Optional[int] = None

    # -- schedule components ------------------------------------------------------

    @property
    def has_schedule(self) -> bool:
        """True when any adversarial ingredient is active."""
        return bool(
            self.delivery
            or self.loss_rate
            or self.crash_rounds
            or self.join_rounds
        )

    def fault_plan(self) -> Optional[FaultPlan]:
        if not self.loss_rate and not self.crash_rounds:
            return None
        return FaultPlan(
            loss_rate=self.loss_rate,
            crash_rounds=dict(self.crash_rounds),
            seed=self.fault_seed,
        )

    def join_plan(self) -> Optional[JoinPlan]:
        if not self.join_rounds:
            return None
        return JoinPlan(join_rounds=dict(self.join_rounds))

    def resolved_max_rounds(self) -> int:
        if self.max_rounds is not None:
            return self.max_rounds
        return get_algorithm(self.algorithm).round_cap(self.n)

    # -- construction -------------------------------------------------------------

    def build_graph(self) -> KnowledgeGraph:
        return make_topology(
            self.topology, self.n, seed=self.seed, **dict(self.topology_params)
        )

    def build_engine(
        self,
        *,
        backend: Optional[str] = None,
        enforce_legality: bool = True,
        observers: Iterable[Observer] = (),
        delivery: Optional[str] = None,
    ) -> SynchronousEngine:
        """Deterministically construct the engine this script describes.

        ``delivery`` overrides the script's own spec when given (the
        differential runner uses this to pit a model against its lockstep
        reduction on an otherwise identical run).  ``backend`` selects
        the engine backend (``"legacy"`` or ``"fast"``); ``None`` means
        ``"fast"``.
        """
        spec = get_algorithm(self.algorithm)
        return SynchronousEngine(
            self.build_graph(),
            spec.node_factory(**dict(self.params)),
            seed=self.seed,
            goal=self.goal,
            fault_plan=self.fault_plan(),
            join_plan=self.join_plan(),
            delivery=delivery if delivery is not None else self.delivery,
            observers=observers,
            enforce_legality=enforce_legality,
            fast_path=True,
            backend=backend,
            algorithm_name=self.algorithm,
            params=self.params,
        )

    # -- serialization ------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (inverse of :meth:`from_dict`)."""
        payload = asdict(self)
        payload["schema"] = SCRIPT_SCHEMA
        payload["crash_rounds"] = {
            str(node): round_no for node, round_no in self.crash_rounds.items()
        }
        payload["join_rounds"] = {
            str(node): round_no for node, round_no in self.join_rounds.items()
        }
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScheduleScript":
        schema = payload.get("schema", SCRIPT_SCHEMA)
        if schema != SCRIPT_SCHEMA:
            raise ValueError(
                f"unsupported script schema {schema!r} (expected {SCRIPT_SCHEMA})"
            )
        return cls(
            algorithm=payload["algorithm"],
            topology=payload["topology"],
            n=int(payload["n"]),
            seed=int(payload["seed"]),
            goal=payload.get("goal", "strong"),
            delivery=payload.get("delivery"),
            loss_rate=float(payload.get("loss_rate", 0.0)),
            fault_seed=int(payload.get("fault_seed", 0)),
            crash_rounds={
                int(node): int(round_no)
                for node, round_no in (payload.get("crash_rounds") or {}).items()
            },
            join_rounds={
                int(node): int(round_no)
                for node, round_no in (payload.get("join_rounds") or {}).items()
            },
            params=dict(payload.get("params") or {}),
            topology_params=dict(payload.get("topology_params") or {}),
            max_rounds=payload.get("max_rounds"),
        )

    def describe(self) -> str:
        """One-line human summary for progress output and reports."""
        parts = [
            f"{self.algorithm}/{self.topology}",
            f"n={self.n}",
            f"seed={self.seed}",
            f"goal={self.goal}",
            f"delivery={self.delivery or 'lockstep'}",
        ]
        if self.loss_rate:
            parts.append(f"loss={self.loss_rate}")
        if self.crash_rounds:
            parts.append(f"crashes={len(self.crash_rounds)}")
        if self.join_rounds:
            parts.append(f"joins={len(self.join_rounds)}")
        return " ".join(parts)
