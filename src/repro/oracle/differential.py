"""Differential execution: run one cell twice, diff every round.

The engine ships two knowledge stores (the fast bitmask store vs the
legacy per-id sets) and five delivery models, several of which
degenerate to lockstep at zero parameters.  Equivalence claims like these rot silently; the
differential runner makes them mechanical.  It steps two engines built
from the same :class:`~repro.oracle.script.ScheduleScript` in lockstep,
captures a :class:`RoundDigest` of each after every round — knowledge
state via :meth:`~repro.sim.engine.SynchronousEngine.knowledge_digest`
plus the complete metrics ledger — and reports the first divergent round
and field.

Two standard pairings:

* :func:`diff_fast_vs_legacy` — the fast store against the reference
  store on the script's own schedule;
* :func:`diff_reduction` — the script's delivery-model family at its
  degenerate parameterization (``jitter:0``, ``adversarial:0``,
  ``perlink:0``, an out-of-horizon partition window) against plain
  ``lockstep``, which must be behaviorally identical.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional, Tuple

from ..sim.engine import SynchronousEngine
from .script import ScheduleScript


@dataclass(frozen=True)
class RoundDigest:
    """Everything two equivalent engines must agree on after a round."""

    round_no: int
    knowledge: str
    alive: int
    goal: bool
    messages: int
    pointers: int
    messages_by_kind: Tuple[Tuple[str, int], ...]
    pointers_by_kind: Tuple[Tuple[str, int], ...]
    dropped_by_reason: Tuple[Tuple[str, int], ...]
    delivery_delays: Tuple[Tuple[int, int], ...]
    in_flight: int


def engine_digest(engine: SynchronousEngine) -> RoundDigest:
    """Capture the comparable state of an engine right now."""
    metrics = engine.metrics
    return RoundDigest(
        round_no=engine.round_no,
        knowledge=engine.knowledge_digest(),
        alive=len(engine.alive_nodes),
        goal=engine.goal_reached(),
        messages=metrics.total_messages,
        pointers=metrics.total_pointers,
        messages_by_kind=tuple(sorted(metrics.messages_by_kind.items())),
        pointers_by_kind=tuple(sorted(metrics.pointers_by_kind.items())),
        dropped_by_reason=tuple(sorted(metrics.dropped_by_reason.items())),
        delivery_delays=tuple(sorted(metrics.delivery_delays.items())),
        in_flight=engine.delivery.in_flight(),
    )


@dataclass(frozen=True)
class Divergence:
    """The first field on which the paired digests disagree."""

    round_no: int
    field: str
    value_a: Any
    value_b: Any


@dataclass(frozen=True)
class DiffReport:
    """Outcome of one differential run.

    ``equal`` means every compared round digested identically; with
    ``completed=False`` the comparison stopped at the round cap with both
    engines still short of the goal (equal *within the horizon*).
    """

    label_a: str
    label_b: str
    equal: bool
    rounds: int
    completed: bool
    divergence: Optional[Divergence] = None

    def describe(self) -> str:
        if self.equal:
            state = "completed" if self.completed else "hit the round cap"
            return (
                f"{self.label_a} == {self.label_b} over {self.rounds} "
                f"rounds ({state})"
            )
        div = self.divergence
        return (
            f"{self.label_a} != {self.label_b} at round {div.round_no}: "
            f"{div.field} {div.value_a!r} vs {div.value_b!r}"
        )


def _first_divergence(a: RoundDigest, b: RoundDigest) -> Divergence:
    for spec in fields(RoundDigest):
        value_a = getattr(a, spec.name)
        value_b = getattr(b, spec.name)
        if value_a != value_b:
            return Divergence(a.round_no, spec.name, value_a, value_b)
    raise ValueError("digests are equal; no divergence to report")


def diff_engines(
    engine_a: SynchronousEngine,
    engine_b: SynchronousEngine,
    *,
    max_rounds: int,
    label_a: str = "a",
    label_b: str = "b",
) -> DiffReport:
    """Step two engines in lockstep, diffing digests after every round.

    The initial (round-0) state is compared too, so mismatched inputs are
    reported before a single round runs.  Stepping stops at the first
    divergence, when both engines reach their goal, or at *max_rounds*.
    """
    rounds = 0
    while True:
        digest_a = engine_digest(engine_a)
        digest_b = engine_digest(engine_b)
        if digest_a != digest_b:
            return DiffReport(
                label_a=label_a,
                label_b=label_b,
                equal=False,
                rounds=rounds,
                completed=False,
                divergence=_first_divergence(digest_a, digest_b),
            )
        if digest_a.goal:
            return DiffReport(
                label_a=label_a,
                label_b=label_b,
                equal=True,
                rounds=rounds,
                completed=True,
            )
        if rounds >= max_rounds:
            return DiffReport(
                label_a=label_a,
                label_b=label_b,
                equal=True,
                rounds=rounds,
                completed=False,
            )
        engine_a.step()
        engine_b.step()
        rounds += 1


def diff_fast_vs_legacy(
    script: ScheduleScript, *, enforce_legality: bool = True
) -> DiffReport:
    """The fast store against the reference store on one script."""
    return diff_engines(
        script.build_engine(backend="fast", enforce_legality=enforce_legality),
        script.build_engine(backend="legacy", enforce_legality=enforce_legality),
        max_rounds=script.resolved_max_rounds(),
        label_a="fast-path",
        label_b="legacy",
    )


def lockstep_reduction(spec: Optional[str], horizon: int) -> Optional[str]:
    """The degenerate spec of *spec*'s model family, or ``None``.

    ``jitter:0``, ``adversarial:0``, and ``perlink:0`` all promise a
    uniform one-round delay; a partition window strictly beyond *horizon*
    (the last delivery round a run of that length can reach) never fires.
    Each must therefore be bit-identical to ``lockstep``.
    """
    if spec is None:
        return None
    family = spec.strip().partition(":")[0].lower()
    if family in ("jitter", "adversarial", "perlink"):
        return f"{family}:0"
    if family == "partition":
        return f"partition:{horizon + 2}-{horizon + 2}"
    return None  # lockstep has nothing to reduce


def diff_reduction(script: ScheduleScript) -> Optional[DiffReport]:
    """Diff the script's model family at its degenerate parameters
    against plain lockstep, on the script's full fault/churn schedule.

    Returns ``None`` when the script's delivery is already lockstep.
    """
    horizon = script.resolved_max_rounds()
    reduced = lockstep_reduction(script.delivery, horizon)
    if reduced is None:
        return None
    return diff_engines(
        script.build_engine(delivery=reduced),
        script.build_engine(delivery="lockstep"),
        max_rounds=horizon,
        label_a=reduced,
        label_b="lockstep",
    )
