"""Complexity accounting for simulation runs.

The resource-discovery literature reports four cost measures (DESIGN.md
section 1): rounds, messages, pointers, and bits.  :class:`MetricsCollector`
accumulates them during a run; :class:`RunResult` is the immutable summary
handed back to callers and to the benchmark harness.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .messages import MESSAGE_HEADER_WORDS, Message

#: Loss-reason tags used by :attr:`MetricsCollector.dropped_by_reason`.
#: ``fault`` — dropped at send time by the loss-rate coin
#: (:meth:`repro.sim.faults.FaultInjector.send_drop_reason`); ``crash`` —
#: the recipient had crashed, whether the loss was detected at send time
#: (recipient already dead) or at delivery time (it died while the
#: message was in flight) — the same physical loss, so it carries one
#: tag; ``dormant`` — the recipient had not yet joined at delivery time;
#: ``partition`` — vetoed by a
#: :class:`repro.sim.transport.PartitionWindow` delivery model.
DROP_FAULT = "fault"
DROP_CRASH = "crash"
DROP_DORMANT = "dormant"
DROP_PARTITION = "partition"


@dataclass(frozen=True, slots=True)
class RoundStats:
    """Costs incurred during a single synchronous round.

    ``messages`` counts the sends charged this round; ``dropped_messages``
    counts the losses *charged* this round, which under delayed delivery
    include in-flight losses of messages sent (and counted) in earlier
    rounds.  The two streams reconcile only over the whole run, so
    :attr:`delivered_messages` clamps at zero per round — use
    ``RunResult.messages - RunResult.dropped_messages`` for run totals.
    """

    round_no: int
    messages: int
    pointers: int
    dropped_messages: int = 0

    @property
    def delivered_messages(self) -> int:
        return max(0, self.messages - self.dropped_messages)


class MetricsCollector:
    """Accumulates per-round and per-kind cost counters during a run."""

    def __init__(self) -> None:
        self.total_messages = 0
        self.total_pointers = 0
        self.messages_by_kind: Counter[str] = Counter()
        self.pointers_by_kind: Counter[str] = Counter()
        self.dropped_by_reason: Counter[str] = Counter()
        self.delivery_delays: Counter[int] = Counter()
        self.round_stats: List[RoundStats] = []
        self._round_messages = 0
        self._round_pointers = 0
        self._round_dropped = 0

    @property
    def total_dropped(self) -> int:
        """All losses regardless of reason (the historical aggregate)."""
        return sum(self.dropped_by_reason.values())

    def record_send(
        self, message: Message, dropped: bool = False, reason: str = DROP_FAULT
    ) -> None:
        """Charge one message (sent messages count even when dropped).

        ``reason`` tags a send-time drop; the default ``fault`` covers the
        loss coin, while a send to an already-crashed recipient passes
        ``crash`` so the taxonomy matches the in-flight case.
        """
        pointers = message.pointer_count
        self.total_messages += 1
        self.total_pointers += pointers
        self.messages_by_kind[message.kind] += 1
        self.pointers_by_kind[message.kind] += pointers
        self._round_messages += 1
        self._round_pointers += pointers
        if dropped:
            self.dropped_by_reason[reason] += 1
            self._round_dropped += 1

    def record_batch(
        self,
        messages_by_kind: Mapping[str, int],
        pointers_by_kind: Mapping[str, int],
        dropped_by_reason: Optional[Mapping[str, int]] = None,
    ) -> None:
        """Charge a whole round's sends in one call.

        The engine tallies its outboxes per kind (see
        :func:`repro.sim.messages.tally_by_kind`) and records them here,
        replacing one :meth:`record_send` call per message with one call
        per round.  The resulting counters are identical: ``Counter.update``
        adds counts, and kinds present with a zero pointer tally still
        materialize their key, exactly as ``record_send`` does.

        ``dropped_by_reason`` charges the round's send-time drops per
        reason (``fault``, ``crash``).  Each entry adds its key to
        :attr:`dropped_by_reason`, even at zero, so pass non-zero counts
        only.
        """
        messages = sum(messages_by_kind.values())
        pointers = sum(pointers_by_kind.values())
        self.total_messages += messages
        self.total_pointers += pointers
        self.messages_by_kind.update(messages_by_kind)
        self.pointers_by_kind.update(pointers_by_kind)
        self._round_messages += messages
        self._round_pointers += pointers
        if dropped_by_reason:
            for reason, count in dropped_by_reason.items():
                self.dropped_by_reason[reason] += count
                self._round_dropped += count

    def record_in_flight_loss(self, reason: str = DROP_CRASH) -> None:
        """Charge a drop for a message lost after sending (recipient
        crashed or dormant at delivery time, or vetoed by the delivery
        model).  The send itself was already recorded; only the drop
        counters move."""
        self.dropped_by_reason[reason] += 1
        self._round_dropped += 1

    def record_delay(self, delay: int, count: int = 1) -> None:
        """Charge *count* messages scheduled with the given in-flight delay
        (rounds from send to delivery attempt) to the latency histogram."""
        self.delivery_delays[delay] += count

    def close_round(self, round_no: int) -> RoundStats:
        """Finish the current round and return its statistics."""
        stats = RoundStats(
            round_no=round_no,
            messages=self._round_messages,
            pointers=self._round_pointers,
            dropped_messages=self._round_dropped,
        )
        self.round_stats.append(stats)
        self._round_messages = 0
        self._round_pointers = 0
        self._round_dropped = 0
        return stats


@dataclass(frozen=True)
class RunResult:
    """Immutable summary of one discovery run.

    Attributes:
        algorithm: Registry name of the protocol that ran.
        n: Number of machines in the simulation.
        seed: Master seed of the run.
        completed: Whether the goal predicate was reached.
        rounds: Rounds executed until completion (or until the cap when
            ``completed`` is ``False``).
        messages / pointers: Totals over the whole run.
        dropped_messages: Messages charged but lost for any reason
            (send-time fault drops plus in-flight losses).
        dropped_by_reason: The same losses keyed by reason tag (``fault``,
            ``crash``, ``dormant``, ``partition`` — the ``DROP_*``
            constants); values sum to ``dropped_messages``.
        delivery_delays: Histogram ``{delay_rounds: message_count}`` of
            the in-flight delay assigned to every scheduled message
            (``{1: sends}`` under lockstep delivery).
        messages_by_kind / pointers_by_kind: Per-message-kind breakdowns.
        round_stats: Per-round cost trajectory.
        params: Algorithm parameters used for the run.
        extra: Free-form observations contributed by observers (for
            example per-phase cluster-size statistics).
    """

    algorithm: str
    n: int
    seed: int
    completed: bool
    rounds: int
    messages: int
    pointers: int
    dropped_messages: int = 0
    messages_by_kind: Mapping[str, int] = field(default_factory=dict)
    pointers_by_kind: Mapping[str, int] = field(default_factory=dict)
    dropped_by_reason: Mapping[str, int] = field(default_factory=dict)
    delivery_delays: Mapping[int, int] = field(default_factory=dict)
    round_stats: Tuple[RoundStats, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)

    @property
    def id_bits(self) -> int:
        """Identifier width used for bit-complexity conversion."""
        return max(1, math.ceil(math.log2(max(2, self.n))))

    @property
    def bits(self) -> int:
        """Total bit complexity (pointers plus per-message headers)."""
        return (self.pointers + MESSAGE_HEADER_WORDS * self.messages) * self.id_bits

    @property
    def messages_per_node(self) -> float:
        return self.messages / self.n if self.n else 0.0

    def summary(self) -> Dict[str, Any]:
        """A flat dict convenient for tables and JSON dumps."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "seed": self.seed,
            "completed": self.completed,
            "rounds": self.rounds,
            "messages": self.messages,
            "pointers": self.pointers,
            "bits": self.bits,
            "dropped_messages": self.dropped_messages,
        }
