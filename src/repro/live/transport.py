"""The network as a :class:`~repro.sim.transport.DeliveryModel`.

The simulator's delivery models decide *when* a submitted message lands
and whether it survives the trip; the engine's round loop is written
against that contract alone.  :class:`RealTransport` implements the same
contract for the live host: :meth:`~RealTransport.submit` queues the
message for the node's socket writer instead of a simulated scheduler,
and the in-flight buffer behind the inherited in-flight filter,
:meth:`~repro.sim.transport.DeliveryModel.arrivals`, is fed by frames
arriving off the network (:meth:`~RealTransport.ingest`).

Because the live host runs the classic synchronous abstraction over an
asynchronous network (round pacing via end-of-round markers), every
message logically takes exactly one round — ``uniform_delay = 1``, like
:class:`~repro.sim.transport.Lockstep` — and the delivery-time
filtering, metrics charging, and drop accounting all come from the
engine's own filter unmodified.

:class:`LiveHostContext` is the engine-shaped object the model binds
to: the slice of :class:`~repro.sim.engine.SynchronousEngine` the
``DeliveryModel`` runtime actually touches (metrics, fault and join
state, the optional delivery log), with an empty fault plan and no
joins.  A live node that dies disappears from the network; its peers
detect that through the runtime's failure detector (marker deadlines
and send retries, :mod:`repro.live.node`), and sends addressed to a
peer already declared dead are charged to the shared metrics as
:data:`~repro.sim.metrics.DROP_CRASH` losses — the same taxonomy the
engine's :class:`~repro.sim.faults.FaultInjector` files them under.
"""

from __future__ import annotations

from typing import List

from ..sim.churn import JoinPlan
from ..sim.faults import FaultInjector
from ..sim.messages import Message
from ..sim.metrics import MetricsCollector
from ..sim.transport import DeliveryModel


class LiveHostContext:
    """The engine-shaped host a live node binds its delivery model to."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.metrics = MetricsCollector()
        self._faults = FaultInjector(None, seed)
        self._joins = JoinPlan()
        self._delivery_log = None


class RealTransport(DeliveryModel):
    """Delivery model whose scheduler is the actual network.

    Bound per node (one transport per :class:`LiveHostContext`), not per
    engine.  Outbound: :meth:`submit` charges the one-round latency to
    the metrics and parks the message in an outgoing queue the node's
    round loop flushes over TCP (:meth:`take_outgoing`).  Inbound: the
    node calls :meth:`ingest` once all of a round's traffic has arrived
    — in canonical order, per-sender batches ascending by sender id — so
    the inherited :meth:`~repro.sim.transport.DeliveryModel.arrivals`
    filter returns exactly the inbox a lockstep simulator would have built.
    """

    uniform_delay = 1
    name = "real"

    def delay(self, sender: int, recipient: int, send_round: int) -> int:
        return 1

    def _on_bind(self, engine) -> None:
        self._outgoing: List[Message] = []

    def submit(self, message: Message, send_round: int) -> None:
        self._outgoing.append(message)
        self._engine.metrics.record_delay(1)

    def take_outgoing(self) -> List[Message]:
        """Drain the messages queued for the network this round."""
        outgoing, self._outgoing = self._outgoing, []
        return outgoing

    def ingest(self, deliver_round: int, messages: List[Message]) -> None:
        """Hand a round's received traffic to the in-flight buffer."""
        bucket = self._future.get(deliver_round)
        if bucket is None:
            self._future[deliver_round] = list(messages)
        else:
            bucket.extend(messages)
