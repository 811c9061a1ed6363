"""Fault injection for discovery runs.

Two fault classes from the distributed-systems playbook are modelled:

* **Message loss** — each sent message is dropped independently with
  probability ``loss_rate``.  Dropped messages are still *charged* to the
  sender's message complexity (the send happened) but are never delivered
  and teach the recipient nothing.
* **Crash failures** — a machine crashes at the start of a scheduled round
  and thereafter neither executes nor receives.  Messages already in flight
  to a crashed machine are lost.  Crashes are fail-stop: no recovery.

The plan is deterministic given its seed, so fault experiments are exactly
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Sequence

from .metrics import DROP_CRASH, DROP_FAULT
from .rng import derive_rng


@dataclass(frozen=True)
class FaultPlan:
    """A reproducible description of the faults injected into one run.

    Attributes:
        loss_rate: Independent drop probability for every message.
        crash_rounds: Mapping from node id to the round (1-based) at whose
            start the node crashes.
        seed: Seed for the loss coin flips (independent of protocol RNG).
    """

    loss_rate: float = 0.0
    crash_rounds: Mapping[int, int] = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be in [0, 1], got {self.loss_rate}")
        for node, round_no in self.crash_rounds.items():
            if round_no < 1:
                raise ValueError(f"crash round for node {node} must be >= 1")

    @property
    def has_faults(self) -> bool:
        return self.loss_rate > 0.0 or bool(self.crash_rounds)


class FaultInjector:
    """Stateful executor of a :class:`FaultPlan` during a run."""

    def __init__(self, plan: Optional[FaultPlan], master_seed: int) -> None:
        self.plan = plan or FaultPlan()
        self._loss_rng: random.Random = derive_rng(master_seed, "faults", self.plan.seed)
        self._crashed: Dict[int, int] = {}

    def apply_crashes(self, round_no: int) -> Sequence[int]:
        """Crash every node scheduled for *round_no*; return their ids."""
        newly_crashed = [
            node
            for node, crash_round in self.plan.crash_rounds.items()
            if crash_round == round_no and node not in self._crashed
        ]
        for node in newly_crashed:
            self._crashed[node] = round_no
        return newly_crashed

    def is_crashed(self, node: int) -> bool:
        return node in self._crashed

    @property
    def crashed_map(self) -> Dict[int, int]:
        """The live node → crash-round mapping (shared; treat as read-only).

        Unlike :attr:`crashed_nodes` this does not copy, so hot loops can
        test emptiness and membership without per-round allocation.
        """
        return self._crashed

    @property
    def crashed_nodes(self) -> frozenset[int]:
        return frozenset(self._crashed)

    def send_drop_reason(self, sender: int, recipient: int) -> Optional[str]:
        """Classify a send-time loss; ``None`` means the send goes through.

        Messages to crashed machines are always lost (tagged
        :data:`~repro.sim.metrics.DROP_CRASH` — the same physical loss as
        a crash caught at delivery time); otherwise a fair ``loss_rate``
        coin decides (:data:`~repro.sim.metrics.DROP_FAULT`).  The coin is
        consumed even for messages lost to a crash, keeping the random
        stream aligned across comparative runs.
        """
        coin_drop = (
            self.plan.loss_rate > 0.0 and self._loss_rng.random() < self.plan.loss_rate
        )
        if recipient in self._crashed:
            return DROP_CRASH
        return DROP_FAULT if coin_drop else None


def parse_kill_specs(specs: Iterable[str]) -> Dict[int, int]:
    """Parse ``"id@round"`` crash specs into a ``crash_rounds`` mapping.

    Accepts an iterable of specs, each of which may itself be a
    comma-separated list (so CLI flags compose: ``--kill 3@5 --kill
    1@2,6@4``).  Raises :class:`ValueError` on malformed specs or a node
    scheduled to crash twice.
    """
    crash_rounds: Dict[int, int] = {}
    for chunk in specs:
        for spec in chunk.split(","):
            spec = spec.strip()
            if not spec:
                continue
            node_text, sep, round_text = spec.partition("@")
            try:
                if not sep:
                    raise ValueError
                node, round_no = int(node_text), int(round_text)
            except ValueError:
                raise ValueError(
                    f"malformed kill spec {spec!r}; expected 'id@round'"
                ) from None
            if round_no < 1:
                raise ValueError(f"kill round for node {node} must be >= 1")
            if node in crash_rounds:
                raise ValueError(f"node {node} scheduled to crash twice")
            crash_rounds[node] = round_no
    return crash_rounds


def crash_fraction_plan(
    node_ids: Iterable[int],
    fraction: float,
    crash_round: int,
    seed: int,
    protect: Iterable[int] = (),
) -> FaultPlan:
    """Build a plan crashing a random *fraction* of nodes at *crash_round*.

    ``protect`` lists nodes exempt from crashing (e.g. a designated
    observer).  The victim choice is deterministic in ``seed``.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    protected = set(protect)
    candidates = sorted(node for node in node_ids if node not in protected)
    count = int(len(candidates) * fraction)
    rng = derive_rng(seed, "crash-fraction", fraction, crash_round)
    victims = rng.sample(candidates, count) if count else []
    return FaultPlan(crash_rounds={node: crash_round for node in victims}, seed=seed)
