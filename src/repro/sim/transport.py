"""Pluggable delivery models: the transport semantics of the round engine.

:class:`~repro.sim.engine.SynchronousEngine` is written against one
interface, so new delivery semantics become data, not engine surgery.
A :class:`DeliveryModel` owns two decisions:

* **send-time scheduling** — :meth:`DeliveryModel.delay` picks how many
  rounds a message spends in flight (a message submitted in round ``r``
  with delay ``d`` lands in the recipient's inbox for round ``r + d``);
* **delivery-time filtering** — :meth:`DeliveryModel.drop_reason` may veto
  a due delivery (e.g. a partition window).  Liveness filtering (crashed
  recipients, dormant joiners) is shared by every model and applied by
  the one in-flight filter, :meth:`DeliveryModel.arrivals`; models only
  add *link* semantics on top.

Shipped models:

* :class:`Lockstep` — the classic synchronous model: every message takes
  exactly one round.  ``uniform_delay == 1`` lets the engine keep its
  wholesale-bucket dispatch (the whole round's outbox becomes the next
  round's delivery bucket in one list move), so the layer costs the
  common case nothing.
* :class:`BoundedJitter` — messages take ``1 .. 1 + jitter`` rounds,
  uniform and deterministic in the seed (salt ``"delivery-jitter"``,
  pinned by the goldens in ``tests/sim/test_fast_path_equivalence.py``).
* :class:`PerLinkLatency` — deterministic heterogeneous delays: each
  directed link gets a fixed delay in ``1 .. 1 + spread`` hashed stably
  from the run seed, modelling a fleet where some links are simply slow.
* :class:`AdversarialScheduler` — worst-case bounded asynchrony: every
  message is held for the maximum delay the bound allows.  Against
  phase-structured protocols this is the most hostile schedule a
  ``(1 + max_delay)``-bounded adversary can play round after round.
* :class:`PartitionWindow` — a transient network partition: during rounds
  ``[start, end]`` no message crosses between the two sides; everything
  else is lockstep.  A robustness scenario for the self-healing paths of
  :mod:`repro.core.sublog`.

Determinism: every model is a pure function of the run seed and its own
parameters.  A model instance is a reusable *spec*; the engine calls
:meth:`DeliveryModel.bind` once per run to obtain a fresh bound runtime
(in-flight buffer, derived RNG), so sharing one spec across a sweep can
never leak state between runs.
"""

from __future__ import annotations

import copy
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from .messages import Message
from .metrics import DROP_CRASH, DROP_DORMANT, DROP_PARTITION
from .rng import derive_rng, derive_seed

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import SynchronousEngine


class DeliveryModel:
    """Delivery semantics for one simulation run.

    Subclasses override :meth:`delay` (send-time scheduling) and
    optionally :meth:`drop_reason` (delivery-time filtering, with
    ``filters_delivery = True``).  Models with a constant delay should set
    :attr:`uniform_delay` so the engine can dispatch whole rounds
    wholesale.

    Instances are specs until :meth:`bind` attaches them to an engine;
    the bound copy carries the per-run state (in-flight buffer, RNG).
    """

    #: When set, every message takes exactly this many rounds; the engine
    #: then skips per-message :meth:`delay` calls in fault-free runs.
    uniform_delay: Optional[int] = None
    #: True when :meth:`drop_reason` must be consulted per delivery.
    filters_delivery: bool = False
    #: Registry/CLI name of the model family.
    name: str = "delivery"

    # -- spec API -----------------------------------------------------------------

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        """Rounds in flight (>= 1) for a message submitted this round."""
        raise NotImplementedError

    def drop_reason(
        self, sender: int, recipient: int, deliver_round: int
    ) -> Optional[str]:
        """Model-specific drop verdict for a due delivery (None = deliver)."""
        return None

    def describe(self) -> str:
        """Short spec string (inverse of :func:`parse_delivery`)."""
        return self.name

    # -- per-run runtime ----------------------------------------------------------

    def bind(self, engine: "SynchronousEngine") -> "DeliveryModel":
        """Return a fresh bound runtime for *engine*.

        The spec itself is never mutated, so one model instance can be
        shared across a whole sweep; each run binds its own buffer and
        (for randomized models) its own seed-derived RNG.
        """
        bound = copy.copy(self)
        bound._engine = engine
        bound._future = {}
        bound._delays = {}
        bound._on_bind(engine)
        return bound

    def _on_bind(self, engine: "SynchronousEngine") -> None:
        """Hook for subclasses needing engine context (seed, node ids)."""

    def submit(self, message: Message, send_round: int) -> None:
        """Schedule one message, charging its delay to the latency metric."""
        delay = self.delay(message.sender, message.recipient, send_round)
        deliver_at = send_round + delay
        bucket = self._future.get(deliver_at)
        if bucket is None:
            self._future[deliver_at] = [message]
            self._delays[deliver_at] = [delay]
        else:
            bucket.append(message)
            self._delays[deliver_at].append(delay)
        self._engine.metrics.record_delay(delay)

    def submit_bulk(self, sends: List[Message], send_round: int) -> None:
        """Wholesale dispatch for uniform-delay models.

        Takes ownership of *sends*: the whole round's outbox becomes (or
        extends) a single delivery bucket with one list operation — the
        zero-overhead case the lockstep round loop has always had.
        """
        delay = self.uniform_delay
        deliver_at = send_round + delay
        bucket = self._future.get(deliver_at)
        if bucket is None:
            self._future[deliver_at] = sends
        else:
            bucket.extend(sends)
        self._engine.metrics.record_delay(delay, len(sends))

    def pending(
        self, round_no: int
    ) -> Tuple[Optional[List[Message]], Optional[List[int]]]:
        """Pop the messages due at *round_no* and their parallel delays.

        A ``None`` delay list means every entry took :attr:`uniform_delay`
        rounds (wholesale submissions never materialize per-message
        delays).
        """
        return self._future.pop(round_no, None), self._delays.pop(round_no, None)

    def in_flight(self) -> int:
        """Messages currently scheduled but not yet due."""
        return sum(len(bucket) for bucket in self._future.values())

    def arrivals(self, round_no: int) -> List[Message]:
        """Pop the messages due at *round_no* and return those that land.

        The engine's one in-flight filter, shared by every store: a
        message to a crashed or dormant recipient, or one the model's
        :meth:`drop_reason` vetoes, is lost and charged to the metrics.
        When the host keeps a delivery log (observers want one), every due
        message is logged with its delay and fate.  When nothing can drop
        a message and no log is kept, the due bucket is handed over as is.
        """
        pending, delays = self.pending(round_no)
        if not pending:
            return []
        host = self._engine
        crashed = host._faults.crashed_map
        joins = host._joins if host._joins.join_rounds else None
        log = host._delivery_log
        filters = self.filters_delivery
        if not crashed and joins is None and not filters and log is None:
            return pending
        metrics = host.metrics
        delay = self.uniform_delay or 1
        delay_iter = iter(delays) if delays is not None else None
        kept: List[Message] = []
        for message in pending:
            if delay_iter is not None:
                delay = next(delay_iter)
            recipient = message.recipient
            if crashed and recipient in crashed:
                reason: Optional[str] = DROP_CRASH
            elif joins is not None and joins.is_dormant(recipient, round_no):
                reason = DROP_DORMANT
            elif filters:
                reason = self.drop_reason(message.sender, recipient, round_no)
            else:
                reason = None
            if reason is None:
                kept.append(message)
            else:
                metrics.record_in_flight_loss(reason)
            if log is not None:
                log.append((message, delay, reason))
        return kept


class Lockstep(DeliveryModel):
    """Classic synchronous delivery: every message arrives next round."""

    uniform_delay = 1
    name = "lockstep"

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        return 1


class BoundedJitter(DeliveryModel):
    """Bounded asynchrony: messages take ``1 .. 1 + jitter`` rounds.

    Delays are uniform and deterministic in the run seed, drawn from the
    derived stream salted ``"delivery-jitter"``.  Changing the salt or the
    draw order breaks the pre-refactor goldens pinned in
    ``tests/sim/test_fast_path_equivalence.py``.
    """

    name = "jitter"

    def __init__(self, jitter: int) -> None:
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.jitter = int(jitter)
        self.uniform_delay = 1 if self.jitter == 0 else None

    def describe(self) -> str:
        return f"jitter:{self.jitter}"

    def _on_bind(self, engine: "SynchronousEngine") -> None:
        self._rng = derive_rng(engine.seed, "delivery-jitter")

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        return 1 + self._rng.randrange(self.jitter + 1)


class AdversarialScheduler(DeliveryModel):
    """Worst-case bounded asynchrony: every message takes the maximum.

    A delay-bounded adversary may hold any message up to ``1 + max_delay``
    rounds; this one holds *every* message exactly that long.  Uniform
    lateness is the most hostile stationary schedule for phase-structured
    protocols — every invite arrives ``max_delay`` rounds behind the phase
    clock that scheduled it — while random jitter lets a fraction of
    traffic through on time.  Being uniform, it still qualifies for the
    engine's wholesale dispatch.
    """

    name = "adversarial"

    def __init__(self, max_delay: int = 2) -> None:
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.max_delay = int(max_delay)
        self.uniform_delay = 1 + self.max_delay

    def describe(self) -> str:
        return f"adversarial:{self.max_delay}"

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        return self.uniform_delay


class PerLinkLatency(DeliveryModel):
    """Deterministic heterogeneous per-link delays.

    Each directed link ``(u, v)`` gets a fixed delay in ``1 .. 1 +
    spread``, hashed stably from the run seed (`sim.rng.derive_seed`), so
    the same link is always equally slow within a run and across reruns —
    a fleet with a few slow cross-rack links rather than uniformly noisy
    ones.  Explicit ``delays`` entries override the hash per link.
    """

    name = "perlink"

    def __init__(
        self,
        spread: int = 2,
        delays: Optional[Mapping[Tuple[int, int], int]] = None,
    ) -> None:
        if spread < 0:
            raise ValueError(f"spread must be >= 0, got {spread}")
        for link, delay in (delays or {}).items():
            if delay < 1:
                raise ValueError(f"delay for link {link} must be >= 1, got {delay}")
        self.spread = int(spread)
        self.overrides: Dict[Tuple[int, int], int] = dict(delays or {})
        if self.spread == 0 and not self.overrides:
            self.uniform_delay = 1

    def describe(self) -> str:
        return f"perlink:{self.spread}"

    def _on_bind(self, engine: "SynchronousEngine") -> None:
        self._seed = engine.seed
        self._link_delays = dict(self.overrides)

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        link = (sender, recipient)
        delay = self._link_delays.get(link)
        if delay is None:
            delay = 1 + derive_seed(
                self._seed, "perlink-latency", sender, recipient
            ) % (self.spread + 1)
            self._link_delays[link] = delay
        return delay


class PartitionWindow(DeliveryModel):
    """A transient network partition over a round window.

    During rounds ``[start, end]`` (inclusive, judged at delivery time) no
    message crosses between the two sides; intra-side traffic and
    everything outside the window is plain lockstep.  ``group`` lists the
    node ids of one side; when omitted, the lower half of the sorted id
    space is used (fixed at bind time).

    Cross-partition messages due inside the window are *lost*, not
    deferred — exactly what a timeout-based transport does — and show up
    in ``RunResult.dropped_by_reason["partition"]``.  Discovery then
    relies on the protocol's own healing paths once the window closes.
    """

    uniform_delay = 1
    filters_delivery = True
    name = "partition"

    def __init__(
        self,
        start: int,
        end: int,
        group: Optional[Union[frozenset, set, tuple, list]] = None,
    ) -> None:
        if start < 1:
            raise ValueError(f"partition start must be >= 1, got {start}")
        if end < start:
            raise ValueError(f"partition end {end} precedes start {start}")
        self.start = int(start)
        self.end = int(end)
        self.group = frozenset(group) if group is not None else None

    def describe(self) -> str:
        return f"partition:{self.start}-{self.end}"

    def _on_bind(self, engine: "SynchronousEngine") -> None:
        group = self.group
        if group is None:
            ids = sorted(engine.node_ids)
            group = frozenset(ids[: len(ids) // 2])
        self._side_a = group

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        return 1

    def drop_reason(
        self, sender: int, recipient: int, deliver_round: int
    ) -> Optional[str]:
        if self.start <= deliver_round <= self.end and (
            (sender in self._side_a) != (recipient in self._side_a)
        ):
            return DROP_PARTITION
        return None


#: Model families constructible from a CLI spec string.
DELIVERY_MODELS: Dict[str, Callable[..., DeliveryModel]] = {
    "lockstep": Lockstep,
    "jitter": BoundedJitter,
    "adversarial": AdversarialScheduler,
    "perlink": PerLinkLatency,
    "partition": PartitionWindow,
}


def parse_delivery(spec: Union[str, DeliveryModel]) -> DeliveryModel:
    """Build a delivery model from a compact spec string.

    Formats (used by the CLI's ``--delivery`` flag and accepted anywhere a
    model is)::

        lockstep            classic synchronous delivery
        jitter:J            uniform delay in 1..1+J
        adversarial[:D]     every message held the maximum 1+D rounds
        perlink[:S]         fixed per-link delays in 1..1+S
        partition:A-B       no cross-partition delivery in rounds [A, B]

    Already-constructed models pass through unchanged.
    """
    if isinstance(spec, DeliveryModel):
        return spec
    head, _, arg = spec.strip().partition(":")
    head = head.lower()
    if head not in DELIVERY_MODELS:
        raise ValueError(
            f"unknown delivery model {head!r}; expected one of "
            f"{', '.join(sorted(DELIVERY_MODELS))}"
        )
    try:
        if head == "lockstep":
            if arg:
                raise ValueError("lockstep takes no argument")
            return Lockstep()
        if head == "jitter":
            if not arg:
                raise ValueError("jitter needs a bound, e.g. jitter:2")
            return BoundedJitter(int(arg))
        if head == "adversarial":
            return AdversarialScheduler(int(arg)) if arg else AdversarialScheduler()
        if head == "perlink":
            return PerLinkLatency(int(arg)) if arg else PerLinkLatency()
        # partition:A-B
        if not arg or "-" not in arg:
            raise ValueError("partition needs a round window, e.g. partition:4-8")
        start_text, _, end_text = arg.partition("-")
        return PartitionWindow(int(start_text), int(end_text))
    except ValueError as error:
        raise ValueError(f"bad delivery spec {spec!r}: {error}") from None
