"""The transport-agnostic protocol core.

A protocol implements one subclass of :class:`ProtocolNode` and overrides
:meth:`ProtocolNode.on_round`.  The node is a *pure protocol state
machine*: it holds no reference to whatever host is driving it, and its
only way to affect the world is the outbox its round transition produces.
Two hosts ship with the repository — the synchronous simulator
(:class:`repro.sim.engine.SynchronousEngine`) and the live asyncio
runtime (:mod:`repro.live`) — and both drive the identical node code
through the same three entry points:

* :meth:`bind` — install the node's row of the host's knowledge, the
  node's private RNG and, on the simulator, the run's id universe
  (exactly once, before the first round);
* :meth:`absorb` — see a delivered message at acceptance time;
* :meth:`run_round` — execute one round against an inbox and return the
  outbox of messages to dispatch.

Timing model (classic synchronous rounds): a message sent in round *r* is
received — and its sender and carried ids learned — at the **end of round
r**; the recipient *acts* on it in round *r + 1*.  Hosts therefore call
:meth:`absorb` at acceptance time and :meth:`run_round` at the start of
the next round.

Knowledge lives in the host, once.  ``self.known`` is the node's row of
the host's knowledge — a read-only set view on the simulator's stores, a
plain ``set`` on the live host — and the node never writes it.  For each
delivered message the host first calls :meth:`absorb`, then teaches the
recipient the sender and the carried ids, so an ``absorb`` override sees
the knowledge from before the message.  Knowledge only grows, so
``len(self.known)`` serves as its version: caches derived from the row
(snapshots, sorted views — see
:class:`repro.algorithms.base.DiscoveryNode`) rebuild when it changes.

Payloads a node builds from sets of ids go through :meth:`ProtocolNode.id_set`:
on the simulator that is an :class:`~repro.sim.idset.IdSet` over the
run's dense index (one n-bit int), on the live host, which has no dense
index, a ``frozenset``.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, AbstractSet, Any, Collection, List, Optional, Sequence, Set

from .messages import Message

if TYPE_CHECKING:
    from .idset import IdUniverse


class ProtocolNode(abc.ABC):
    """One machine participating in a discovery protocol.

    Subclasses must call ``super().__init__(node_id)`` and implement
    :meth:`on_round`.  The host calls :meth:`bind` exactly once before the
    first round to provide the node's row of its knowledge, the node's
    private random stream and, on the simulator, the run's id universe.
    """

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.known: AbstractSet[int] = frozenset((node_id,))
        self.rng: random.Random = random.Random(0)
        self.universe: Optional["IdUniverse"] = None
        self.halted = False
        self._outbox: List[Message] = []

    # -- host-facing lifecycle -----------------------------------------------------

    def bind(
        self,
        known: AbstractSet[int],
        rng: random.Random,
        universe: Optional["IdUniverse"] = None,
    ) -> None:
        """Install the node's row, RNG and id universe; then run
        protocol setup.

        *known* is the row the host keeps for this node, holding the node
        itself and its initial contacts; the host writes it, the node
        only reads it.  *universe* is the host's dense index, which
        :meth:`id_set` builds values over; a host without one passes
        ``None``.
        """
        if self.node_id not in known:
            raise ValueError(f"node {self.node_id}'s row does not hold the node itself")
        self.known = known
        self.rng = rng
        self.universe = universe
        self.setup()

    def absorb(self, message: Message) -> None:
        """Hook run for each delivered message, before the host teaches
        the recipient its sender and ids; the default does nothing."""

    def run_round(self, round_no: int, inbox: Sequence[Message]) -> List[Message]:
        """Host entry point: execute one round, return the outbox.

        The returned list merges messages queued through :meth:`send`
        during the transition with any sequence :meth:`on_round` returned
        directly; the internal queue is left empty either way.
        """
        returned = self.on_round(round_no, inbox, self.rng)
        outbox, self._outbox = self._outbox, []
        if returned:
            outbox.extend(returned)
        return outbox

    def drain_outbox(self) -> List[Message]:
        """Hand any messages queued outside a round transition to the host.

        Hosts normally consume the outbox :meth:`run_round` returns; this
        exists for tests and tooling that queue via :meth:`send` directly.
        """
        outbox, self._outbox = self._outbox, []
        return outbox

    # -- protocol-facing API -----------------------------------------------------

    def setup(self) -> None:
        """Hook run once after :meth:`bind`; override when needed."""

    @abc.abstractmethod
    def on_round(
        self, round_no: int, inbox: Sequence[Message], rng: random.Random
    ) -> Optional[Sequence[Message]]:
        """Execute one synchronous round: a pure state transition.

        Given the current protocol state, the round number, the inbox,
        and the node's private random stream, mutate only local protocol
        state and produce the round's outbox — either by returning a
        sequence of messages (preferred; build them with
        :meth:`message`), by queueing through :meth:`send`, or both.

        Args:
            round_no: 1-based round number (round 1 has an empty inbox and
                serves as the protocol's initiation round).
            inbox: Messages sent to this node in round ``round_no - 1``.
                Their senders and carried ids are already in ``self.known``.
            rng: The node's private random stream (the same object as
                ``self.rng``; passed explicitly so the transition's inputs
                are all visible in its signature).
        """

    def message(
        self,
        recipient: int,
        kind: str,
        ids: Collection[int] = (),
        data: Any = None,
    ) -> Message:
        """Construct (without queueing) a message from this node.

        The host validates the model's legality rule (recipient and all
        carried ids must currently be known to this node) when it collects
        the outbox; violations raise
        :class:`repro.sim.errors.ProtocolViolation`.
        """
        if recipient == self.node_id:
            raise ValueError(f"node {self.node_id} attempted to message itself")
        return Message(
            kind=kind, sender=self.node_id, recipient=recipient, ids=ids, data=data
        )

    def send(
        self,
        recipient: int,
        kind: str,
        ids: Collection[int] = (),
        data: Any = None,
    ) -> None:
        """Queue a message for the current round's outbox.

        Imperative convenience over :meth:`message` for protocols whose
        transitions fan out across handler methods (e.g. the sub-log
        cluster protocol); :meth:`run_round` merges the queue into the
        outbox it returns.
        """
        self._outbox.append(self.message(recipient, kind, ids=ids, data=data))

    def id_set(self, ids: Collection[int]) -> AbstractSet[int]:
        """*ids* as an immutable payload: an
        :class:`~repro.sim.idset.IdSet` over the host's dense index, or a
        ``frozenset`` on a host without one.

        Reading the node's own row costs nothing on the mask store, whose
        rows are masks already; ``value - {member}`` is one more mask.
        """
        universe = self.universe
        if universe is None:
            return frozenset(ids)
        return universe.value(ids)

    def halt(self) -> None:
        """Mark this node as locally finished (diagnostic only).

        Halting is advisory: hosts keep delivering messages so that
        quiescence bugs surface in tests rather than being masked.
        """
        self.halted = True

    # -- conveniences -------------------------------------------------------------

    @property
    def others_known(self) -> Set[int]:
        """Knowledge excluding this node itself (fresh set)."""
        return self.known - {self.node_id}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.node_id}, |known|={len(self.known)})"
