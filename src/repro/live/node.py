"""One live protocol node: TCP endpoint + marker-paced round loop.

A :class:`LiveNodeRuntime` hosts exactly one protocol-core node
(:class:`~repro.sim.node.ProtocolNode`) the way the simulator hosts n
of them.  It owns a TCP server for inbound traffic, dials peers on
demand through a cluster-provided directory (the live analog of the
model's "address known ⇒ reachable" assumption), and advances rounds by
*local ticks*: no coordinator, no global barrier object — a node enters
round ``r + 1`` the moment it holds end-of-round markers for round
``r`` from every peer it still believes alive.

Determinism contract (what makes a live run digest-identical to a
simulated one):

* same per-node RNG stream — ``derive_rng(seed, "node", node_id)``,
  exactly the engine's binding;
* same inbox — round-``r`` traffic is buffered per sender and handed to
  the transport as per-sender batches in ascending sender id, matching
  the engine's sorted-id collection order, with per-connection TCP FIFO
  plus the ptrs-before-eor send order guaranteeing batch completeness;
* same absorb timing — a message sent in round ``r`` is absorbed after
  round ``r``'s marker wait, i.e. before anyone runs round ``r + 1``,
  which is the engine's end-of-round delivery;
* same learning — the node's row is a plain ``set`` that only its
  runtime writes: for each delivered message, the protocol's ``absorb``
  runs first, then the runtime adds the sender and the carried ids,
  which is the order the simulator's stores keep.

Closure detection lags one round by construction: the ``eor`` marker
for round ``r`` carries the sender's completeness *entering* round
``r``, so a cluster that is complete after round ``R`` unanimously
flags it in the round-``R + 1`` markers and stops there — one round
later than the simulator's same-round goal check, with knowledge
already complete and therefore the digest unchanged.

Failure model (the live mirror of :mod:`repro.sim.faults`):

* **Suspicion** — the marker wait carries a per-round deadline
  (:attr:`LiveNodeRuntime.marker_timeout`, default derived from the
  round budget).  A peer silent past the deadline is *suspected*: its
  round is treated as an empty batch and the loop moves on instead of
  hanging forever.  ``suspect_after`` consecutive silent rounds
  escalate the peer to *dead*.
* **Death** — a peer whose connection cannot be re-established within
  ``send_retries`` dial/write attempts (capped exponential backoff) is
  marked dead immediately.  Dead peers are excluded from the marker
  quorum and from the closure unanimity check, and protocol messages
  addressed to them are charged as :data:`~repro.sim.metrics.DROP_CRASH`
  losses — exactly the engine's send-to-crashed accounting.
* **Injected crashes** — :attr:`LiveNodeRuntime.crash_at_round` makes
  the node fail-stop at the top of that round, after absorbing round
  ``R - 1`` traffic and before executing round ``R``: the same boundary
  ``FaultInjector.apply_crashes`` freezes a simulated node at, which is
  what keeps a killed live fleet digest-comparable to the simulator's
  prediction.  Outbound connections are drained before closing so every
  round ``R - 1`` frame the sim counts as delivered really lands.

Suspicion is timeout-based and therefore fallible: a merely *slow* peer
suspected by an aggressive deadline diverges from the simulator (its
late traffic is discarded as unproven).  Deadlines default generous;
the determinism contract above holds whenever suspects are genuinely
dead.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..sim.messages import Message
from ..sim.metrics import DROP_CRASH
from ..sim.node import ProtocolNode
from .transport import LiveHostContext, RealTransport
from .wire import (
    WireError,
    encode_frame,
    message_to_wire,
    read_frame,
    validate_round_frame,
    wire_to_message,
)

logger = logging.getLogger("repro.live.node")

#: Peer liveness states surfaced in ``status`` replies.
PEER_UP = "up"
PEER_SUSPECT = "suspect"
PEER_DEAD = "dead"


def default_marker_timeout(round_budget: int) -> float:
    """Marker-wait deadline (seconds) derived from the round budget.

    Healthy loopback rounds complete in milliseconds, so the deadline
    only has to be *generous*, not tight: a quarter-second per budgeted
    round, clamped to [10 s, 60 s].  A wedged or killed peer now costs
    a bounded wait instead of hanging the fleet forever.
    """
    return min(60.0, max(10.0, 0.25 * round_budget))


async def _close_writer(writer: asyncio.StreamWriter, timeout: float = 2.0) -> None:
    """Close a stream writer and actually wait for the transport to die.

    ``writer.close()`` alone leaks the transport until the event loop
    gets around to it and races any final frames still in the buffer;
    awaiting ``wait_closed`` (bounded, errors swallowed — teardown must
    never raise) drains and releases it deterministically.
    """
    try:
        writer.close()
        await asyncio.wait_for(writer.wait_closed(), timeout)
    except (ConnectionError, OSError, asyncio.TimeoutError):
        pass


class LiveNodeRuntime:
    """Host one protocol node as an asyncio task behind a TCP endpoint.

    Args:
        protocol: A protocol-core node bound to its row, a plain ``set``
            holding the node and its initial contacts, and to its RNG,
            exactly as the engine would have.  The runtime writes the
            row; the node only reads it.
        n: Fleet size — the strong-completion target ``len(known) == n``.
        seed: Master seed (context/metrics bookkeeping only; the
            protocol RNG is bound by the caller).
        host: Interface to bind; loopback unless deliberately exposed.
        marker_timeout: Per-round marker-wait deadline in seconds.
            ``None`` derives :func:`default_marker_timeout` from the
            round budget at run time; ``0`` or negative waits forever
            (the pre-fault-tolerance behavior).
        suspect_after: Consecutive silent rounds before a suspect peer
            is escalated to dead.
        dial_timeout: Per-attempt connect deadline for outbound dials.
        send_retries: Re-dial/re-send attempts after a failed send
            before the peer is declared dead.
        retry_backoff: Initial backoff sleep between retries; doubles
            per attempt up to *retry_backoff_cap*.
    """

    def __init__(
        self,
        protocol: ProtocolNode,
        n: int,
        *,
        seed: int = 0,
        host: str = "127.0.0.1",
        marker_timeout: Optional[float] = None,
        suspect_after: int = 2,
        dial_timeout: float = 5.0,
        send_retries: int = 3,
        retry_backoff: float = 0.05,
        retry_backoff_cap: float = 0.5,
    ) -> None:
        self.protocol = protocol
        self.node_id = protocol.node_id
        self.n = n
        self.host = host
        self.port: Optional[int] = None
        self.context = LiveHostContext(seed)
        self.transport = RealTransport().bind(self.context)
        self.rounds_run = 0
        #: The node's row: what it knows, written here and nowhere else.
        self.known: Set[int] = protocol.known
        self.complete = len(self.known) >= n
        self.shutdown_requested = asyncio.Event()

        self.marker_timeout = marker_timeout
        self.suspect_after = max(1, suspect_after)
        self.dial_timeout = dial_timeout
        self.send_retries = max(0, send_retries)
        self.retry_backoff = retry_backoff
        self.retry_backoff_cap = retry_backoff_cap

        #: Fault injection: fail-stop at the top of this round (1-based).
        self.crash_at_round: Optional[int] = None
        #: Round the node actually died at, if it did.
        self.crashed_at: Optional[int] = None
        #: Whether the endpoint was revived (service plane only).
        self.restarted = False

        self._server: Optional[asyncio.base_events.Server] = None
        self._directory: Mapping[int, Tuple[str, int]] = {}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._inbound: Set[asyncio.StreamWriter] = set()
        self._inbox: List[Message] = []
        self._batches: Dict[int, Dict[int, List[Message]]] = {}
        self._markers: Dict[int, Dict[int, bool]] = {}
        self._progress = asyncio.Event()
        self._dead: Dict[int, str] = {}
        self._suspects: Dict[int, int] = {}

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the server (ephemeral port) and return the endpoint."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    def set_directory(self, directory: Mapping[int, Tuple[str, int]]) -> None:
        """Install the id → endpoint map (the fleet's address book)."""
        self._directory = dict(directory)

    async def close(self) -> None:
        for writer in list(self._writers.values()):
            await _close_writer(writer)
        self._writers.clear()
        for writer in list(self._inbound):
            await _close_writer(writer)
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def restart_service(self) -> Tuple[str, int]:
        """Revive a crashed node's endpoint on the *service plane* only.

        The node answers ``census``/``known``/``status``/... queries from
        its frozen pre-crash knowledge but never rejoins the round loop:
        the simulator's crashes are fail-stop, and a rejoining node would
        break the determinism contract (``docs/MODEL.md`` §7).
        """
        if self.crashed_at is None:
            raise RuntimeError(f"node {self.node_id} was never crashed")
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port or 0
            )
            self.port = self._server.sockets[0].getsockname()[1]
        self.restarted = True
        logger.info(
            "node-restarted node=%s port=%s plane=service", self.node_id, self.port
        )
        return self.host, self.port

    # -- peer liveness -------------------------------------------------------------

    def peer_state(self, peer: int) -> str:
        if peer in self._dead:
            return PEER_DEAD
        if self._suspects.get(peer):
            return PEER_SUSPECT
        return PEER_UP

    @property
    def dead_peers(self) -> Dict[int, str]:
        """Peers declared dead, with the reason each was given up on."""
        return dict(self._dead)

    @property
    def suspect_peers(self) -> Dict[int, int]:
        """Currently suspected peers and their consecutive silent rounds."""
        return dict(self._suspects)

    def _mark_dead(self, peer: int, reason: str) -> None:
        if peer in self._dead:
            return
        self._dead[peer] = reason
        self._suspects.pop(peer, None)
        logger.warning(
            "peer-dead node=%s peer=%s reason=%s", self.node_id, peer, reason
        )
        writer = self._writers.pop(peer, None)
        if writer is not None:
            writer.close()
        # A marker wait that no longer needs this peer must re-evaluate.
        self._progress.set()

    def _mark_suspect(self, peer: int, round_no: int) -> None:
        strikes = self._suspects.get(peer, 0) + 1
        self._suspects[peer] = strikes
        logger.warning(
            "peer-suspect node=%s peer=%s round=%s strikes=%s/%s",
            self.node_id,
            peer,
            round_no,
            strikes,
            self.suspect_after,
        )
        if strikes >= self.suspect_after:
            self._mark_dead(peer, f"marker-timeout round={round_no}")

    # -- the round loop ------------------------------------------------------------

    async def run_discovery(
        self, max_rounds: int, *, stop_on_closure: bool = True
    ) -> int:
        """Run rounds until unanimous closure or *max_rounds*; return
        the number of rounds executed."""
        all_peers = sorted(set(self._directory) - {self.node_id})
        timeout = (
            self.marker_timeout
            if self.marker_timeout is not None
            else default_marker_timeout(max_rounds)
        )
        round_no = 0
        while round_no < max_rounds:
            round_no += 1
            if self.crash_at_round is not None and round_no >= self.crash_at_round:
                await self._die(round_no)
                break
            entered_complete = len(self.known) >= self.n

            outbox = self.protocol.run_round(round_no, self._inbox)
            self._inbox = []
            for message in outbox or ():
                self.transport.submit(message, round_no)
            by_recipient: Dict[int, List[Message]] = {}
            for message in self.transport.take_outgoing():
                by_recipient.setdefault(message.recipient, []).append(message)
            for recipient in sorted(by_recipient):
                messages = by_recipient[recipient]
                if recipient in self._dead:
                    # The engine's send-to-crashed accounting: the send
                    # is charged, the loss is filed under ``crash``.
                    for message in messages:
                        self.context.metrics.record_send(
                            message, dropped=True, reason=DROP_CRASH
                        )
                    continue
                for message in messages:
                    self.context.metrics.record_send(message)
                await self._send(
                    recipient,
                    {
                        "t": "ptrs",
                        "round": round_no,
                        "from": self.node_id,
                        "msgs": [message_to_wire(m) for m in messages],
                    },
                )
            # The marker MUST trail this round's ptrs on every
            # connection: a received eor(r) then proves (TCP FIFO) that
            # all of that sender's round-r traffic is already here.
            for peer in all_peers:
                if peer in self._dead:
                    continue
                await self._send(
                    peer,
                    {
                        "t": "eor",
                        "round": round_no,
                        "from": self.node_id,
                        "complete": entered_complete,
                    },
                )

            await self._wait_for_markers(round_no, all_peers, timeout)

            flags = self._markers.pop(round_no, {})
            batches = self._batches.pop(round_no, {})
            delivered: List[Message] = []
            for sender in sorted(batches):
                if sender not in flags:
                    # No end-of-round marker ⇒ the batch is unproven
                    # (the sender died or timed out mid-round).  The
                    # simulator's crash semantics drop it wholesale.
                    logger.warning(
                        "unproven-batch node=%s sender=%s round=%s dropped=%s",
                        self.node_id,
                        sender,
                        round_no,
                        len(batches[sender]),
                    )
                    continue
                delivered.extend(batches[sender])
            self.transport.ingest(round_no + 1, delivered)
            known = self.known
            for message in self.transport.arrivals(round_no + 1):
                self.protocol.absorb(message)
                known.update(message.ids)
                known.add(message.sender)
                self._inbox.append(message)
            self.context.metrics.close_round(round_no)
            self.rounds_run = round_no
            self.complete = len(known) >= self.n

            # Purge stale tables: late frames for already-processed
            # rounds (a suspect catching up) must not accumulate.
            for table in (self._batches, self._markers):
                for key in [k for k in table if k <= round_no]:
                    del table[key]

            live_peers = [p for p in all_peers if p not in self._dead]
            if (
                stop_on_closure
                and entered_complete
                and all(flags.get(peer, False) for peer in live_peers)
            ):
                break
        return self.rounds_run

    async def _wait_for_markers(
        self, round_no: int, peers: List[int], timeout: Optional[float]
    ) -> None:
        loop = asyncio.get_running_loop()
        deadline = (
            None if timeout is None or timeout <= 0 else loop.time() + timeout
        )
        while True:
            markers = self._markers.get(round_no, {})
            waiting = [
                p for p in peers if p not in self._dead and p not in markers
            ]
            if not waiting:
                for peer in peers:
                    if peer in markers and self._suspects.pop(peer, None):
                        logger.info(
                            "peer-recovered node=%s peer=%s round=%s",
                            self.node_id,
                            peer,
                            round_no,
                        )
                return
            self._progress.clear()
            markers = self._markers.get(round_no, {})
            waiting = [
                p for p in peers if p not in self._dead and p not in markers
            ]
            if not waiting:
                continue
            if deadline is None:
                await self._progress.wait()
                continue
            remaining = deadline - loop.time()
            if remaining <= 0:
                for peer in waiting:
                    self._mark_suspect(peer, round_no)
                return
            try:
                await asyncio.wait_for(self._progress.wait(), remaining)
            except asyncio.TimeoutError:
                pass

    async def _die(self, round_no: int) -> None:
        """Fail-stop: the live analog of ``FaultInjector.apply_crashes``.

        Runs at the top of *round_no*, i.e. after round ``R - 1``'s
        traffic was absorbed and before any round-``R`` execution —
        exactly where the engine freezes a crashing node.  Outbound
        writers are closed gracefully (FIN, buffers flushed) so every
        frame the simulator counts as delivered really lands; peers
        detect the death through marker timeouts and failed sends.
        """
        self.crashed_at = round_no
        logger.warning("crash-injected node=%s round=%s", self.node_id, round_no)
        for writer in list(self._writers.values()):
            await _close_writer(writer)
        self._writers.clear()
        for writer in list(self._inbound):
            await _close_writer(writer)
        self._inbound.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- outbound ------------------------------------------------------------------

    async def _send(self, peer: int, payload: Mapping) -> bool:
        """Deliver one frame to *peer*, re-dialing with capped backoff.

        Returns ``True`` on success.  A peer that exhausts every retry
        is marked dead (excluded from quorums and future sends) instead
        of letting a raw ``ConnectionRefusedError`` unwind the round
        loop and strand the rest of the fleet.
        """
        if peer in self._dead:
            return False
        last_error: Optional[BaseException] = None
        delay = self.retry_backoff
        for attempt in range(self.send_retries + 1):
            try:
                writer = self._writers.get(peer)
                if writer is None:
                    host, port = self._directory[peer]
                    _reader, writer = await asyncio.wait_for(
                        asyncio.open_connection(host, port), self.dial_timeout
                    )
                    self._writers[peer] = writer
                    writer.write(encode_frame({"t": "hello", "from": self.node_id}))
                writer.write(encode_frame(payload))
                await writer.drain()
                return True
            except (ConnectionError, OSError, asyncio.TimeoutError) as error:
                last_error = error
                stale = self._writers.pop(peer, None)
                if stale is not None:
                    stale.close()
                if attempt < self.send_retries:
                    await asyncio.sleep(delay)
                    delay = min(delay * 2, self.retry_backoff_cap)
        attempts = self.send_retries + 1
        self._mark_dead(peer, f"send-failed after {attempts} attempts: {last_error!r}")
        return False

    # -- inbound -------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer_label: object = "?"
        self._inbound.add(writer)
        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except WireError as error:
                    logger.warning(
                        "wire-error node=%s peer=%s error=%s",
                        self.node_id,
                        peer_label,
                        error,
                    )
                    break
                if frame is None:
                    break
                kind = frame.get("t")
                try:
                    if kind == "ptrs":
                        round_no, sender = validate_round_frame(frame)
                        messages = [wire_to_message(w) for w in frame["msgs"]]
                        per_sender = self._batches.setdefault(round_no, {})
                        per_sender.setdefault(sender, []).extend(messages)
                        self._progress.set()
                    elif kind == "eor":
                        round_no, sender = validate_round_frame(frame)
                        self._markers.setdefault(round_no, {})[sender] = bool(
                            frame["complete"]
                        )
                        self._progress.set()
                    elif kind == "hello":
                        peer_label = frame.get("from", "?")
                    else:
                        reply = self._answer_query(frame)
                        if reply is None:
                            logger.warning(
                                "unknown-frame node=%s peer=%s kind=%r",
                                self.node_id,
                                peer_label,
                                kind,
                            )
                            break
                        writer.write(encode_frame(reply))
                        await writer.drain()
                        if kind == "shutdown":
                            break
                except WireError as error:
                    logger.warning(
                        "protocol-error node=%s peer=%s kind=%r error=%s",
                        self.node_id,
                        peer_label,
                        kind,
                        error,
                    )
                    break
        except (ConnectionError, OSError) as error:
            logger.warning(
                "connection-error node=%s peer=%s error=%s",
                self.node_id,
                peer_label,
                error,
            )
        except Exception:
            # Handler death was previously invisible (asyncio swallows
            # server-callback exceptions into a log nobody configures).
            logger.exception(
                "handler-crashed node=%s peer=%s", self.node_id, peer_label
            )
        finally:
            self._inbound.discard(writer)
            await _close_writer(writer)

    def _answer_query(self, frame: Mapping) -> Optional[Mapping]:
        """Service-plane queries; the live analogs of :mod:`repro.apps`."""
        kind = frame["t"]
        known = self.known
        if kind == "census":
            return {
                "t": "census_reply",
                "from": self.node_id,
                "leader": min(known),
                "min": min(known),
                "max": max(known),
                "count": len(known),
            }
        if kind == "succ":
            of = frame.get("of", self.node_id)
            roster = sorted(known)
            later = [peer for peer in roster if peer > of]
            return {
                "t": "succ_reply",
                "from": self.node_id,
                "of": of,
                "succ": later[0] if later else roster[0],
            }
        if kind == "known":
            return {"t": "known_reply", "from": self.node_id, "ids": sorted(known)}
        if kind == "status":
            return {
                "t": "status_reply",
                "from": self.node_id,
                "round": self.rounds_run,
                "complete": self.complete,
                "n": self.n,
                "crashed_at": self.crashed_at,
                "restarted": self.restarted,
                "peers": {
                    str(peer): self.peer_state(peer)
                    for peer in sorted(self._directory)
                    if peer != self.node_id
                },
                "dead_reasons": {
                    str(peer): reason for peer, reason in sorted(self._dead.items())
                },
            }
        if kind == "shutdown":
            self.shutdown_requested.set()
            return {"t": "ok", "from": self.node_id}
        return None
