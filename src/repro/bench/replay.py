"""Record-and-replay kernels for benchmarking the simulator substrate.

The experiment drivers measure *protocols*; the B1 microbenchmarks need to
measure the *engine*.  This module separates the two: :func:`record_run`
executes a protocol once while capturing every outbox it produced, and
:func:`replay_engine` rebuilds an engine whose nodes re-emit that exact
message schedule while doing no protocol work of their own (no knowledge
sets, no RNG, no snapshot copies).  Timing a replay therefore isolates the
engine's round loop — collection, legality, dispatch, delivery, learning,
metrics — from the protocol that generated the traffic.

Replays can start mid-run: :func:`record_run` snapshots ground-truth
knowledge at requested round boundaries, and a replay seeded from such a
snapshot re-executes only the rounds after it.  That is how the B1
steady-state kernel drives the *heaviest* rounds of a Name-Dropper run
(where nearly every machine already knows nearly everyone — by far the
bulk of the run's pointer traffic) without paying for the ramp-up.

Replay assumes fault-free lockstep delivery: the schedule is keyed by
sending round, which no longer matches the original traffic when loss,
crashes, or jitter reshuffle deliveries.  Recording enforces that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from ..sim.engine import SynchronousEngine
from ..sim.messages import Message
from ..sim.metrics import RunResult
from ..sim.node import ProtocolNode

#: ``schedule[(node_id, round_no)]`` is the outbox *node_id* produced in
#: (1-based) *round_no* of the recorded run.
Schedule = Dict[Tuple[int, int], Tuple[Message, ...]]


@dataclass(frozen=True)
class RecordedRun:
    """A protocol run reduced to its replayable message schedule.

    Attributes:
        initial: The initial knowledge graph the run started from.
        schedule: Per-(node, round) outboxes, exactly as drained.
        result: The recorded run's :class:`RunResult`.
        snapshots: Ground-truth knowledge (including self) at the *end* of
            each requested round — valid starting states for partial
            replays.
        seed: Master seed the run (and any replay of it) uses.
        backend: Engine backend the recording ran on.  Replays refuse to
            run on a *different* backend unless forced, because a
            cross-backend replay times one engine against a schedule whose
            provenance is another — fine for deliberate A/B benchmarks
            (that is what ``force=True`` asserts), misleading by accident.
    """

    initial: Mapping[int, FrozenSet[int]]
    schedule: Schedule
    result: RunResult
    snapshots: Mapping[int, Mapping[int, FrozenSet[int]]]
    seed: int
    backend: str = "legacy"

    @property
    def rounds(self) -> int:
        return self.result.rounds

    def window(self, start_round: int) -> int:
        """Number of rounds a replay starting at *start_round* executes."""
        if start_round < 1 or start_round > self.rounds:
            raise ValueError(
                f"start_round must be in [1, {self.rounds}], got {start_round}"
            )
        if start_round > 1 and start_round - 1 not in self.snapshots:
            raise ValueError(
                f"no knowledge snapshot recorded at round {start_round - 1}; "
                "pass it via record_run(snapshot_rounds=...)"
            )
        return self.rounds - start_round + 1


class _SnapshotObserver:
    """Captures ground-truth knowledge at requested round boundaries."""

    def __init__(self, rounds: Sequence[int]) -> None:
        self._wanted = frozenset(rounds)
        self.snapshots: Dict[int, Dict[int, FrozenSet[int]]] = {}

    def on_setup(self, engine: SynchronousEngine) -> None:  # pragma: no cover
        pass

    def on_round_end(self, engine: SynchronousEngine, round_no: int) -> None:
        if round_no in self._wanted:
            self.snapshots[round_no] = {
                node: frozenset(known) for node, known in engine.knowledge.items()
            }

    def on_finish(self, engine: SynchronousEngine, completed: bool) -> None:
        pass

    def extra(self) -> Dict[str, Any]:
        return {}


def record_run(
    graph: Any,
    node_factory: Callable[[int], ProtocolNode],
    *,
    seed: int = 0,
    goal: str = "strong",
    enforce_legality: bool = False,
    max_rounds: Optional[int] = None,
    snapshot_rounds: Sequence[int] = (),
) -> RecordedRun:
    """Run a protocol once, capturing every outbox it drains.

    The recording run itself uses the legacy engine path so the schedule's
    provenance never depends on the code being benchmarked against it.
    """
    observer = _SnapshotObserver(snapshot_rounds)
    engine = SynchronousEngine(
        graph,
        node_factory,
        seed=seed,
        goal=goal,
        enforce_legality=enforce_legality,
        observers=(observer,) if snapshot_rounds else (),
    )
    schedule: Schedule = {}

    def wrap(node: ProtocolNode) -> Callable[[int, Sequence[Message]], list]:
        original = node.run_round

        def recording_run(round_no: int, inbox: Sequence[Message]) -> list:
            outbox = original(round_no, inbox)
            if outbox:
                schedule[(node.node_id, round_no)] = tuple(outbox)
            return outbox

        return recording_run

    initial = {
        node: frozenset(known) - {node} for node, known in engine.knowledge.items()
    }
    for node in engine.nodes.values():
        node.run_round = wrap(node)  # type: ignore[method-assign]
    result = engine.run(max_rounds)
    return RecordedRun(
        initial=initial,
        schedule=schedule,
        result=result,
        snapshots=dict(observer.snapshots),
        seed=seed,
        backend=engine.backend,
    )


class ReplayNode(ProtocolNode):
    """A node that re-emits a recorded schedule.

    ``on_round`` is one dict probe plus a list extend, so a replayed
    round's cost is almost entirely engine-side.
    Subclassing binds the schedule and round offset as class attributes —
    the engine's factory protocol only passes a node id.
    """

    _schedule: Schedule = {}
    _offset: int = 0

    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> Optional[Sequence[Message]]:
        return self._schedule.get((self.node_id, round_no + self._offset))


def replay_engine(
    recorded: RecordedRun,
    *,
    start_round: int = 1,
    backend: str = "legacy",
    force: bool = False,
    enforce_legality: bool = False,
    profile: bool = False,
) -> SynchronousEngine:
    """Build an engine that replays *recorded* from *start_round* on.

    Step it ``recorded.window(start_round)`` times to re-execute the
    remainder of the run; metrics and final ground truth then match the
    recorded tail exactly on any backend.

    ``backend`` selects the replay backend.  Replaying against a backend
    other than ``recorded.backend`` raises unless ``force=True``: the B1
    kernels do this on purpose (the whole point is timing the fast
    engine on a legacy-recorded schedule) and say so with ``force``;
    anything else is probably comparing apples to a different engine by
    accident.
    """
    window = recorded.window(start_round)  # validates start_round
    del window
    if backend != recorded.backend and not force:
        raise ValueError(
            f"recording was made on the {recorded.backend!r} backend but the "
            f"replay requests {backend!r}; pass --force / force=True to "
            "time a cross-backend replay deliberately"
        )
    if start_round == 1:
        adjacency: Mapping[int, FrozenSet[int]] = recorded.initial
    else:
        snapshot = recorded.snapshots[start_round - 1]
        adjacency = {node: known - {node} for node, known in snapshot.items()}
    node_type = type(
        "BoundReplayNode",
        (ReplayNode,),
        {"_schedule": recorded.schedule, "_offset": start_round - 1},
    )
    return SynchronousEngine(
        adjacency,
        node_type,
        seed=recorded.seed,
        enforce_legality=enforce_legality,
        backend=backend,
        profile=profile,
        algorithm_name=f"replay:{recorded.result.algorithm}",
    )
