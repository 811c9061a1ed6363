"""The synchronous round engine.

:class:`SynchronousEngine` executes a discovery protocol over an initial
knowledge graph, enforcing the communication model of DESIGN.md section 1:

* a machine may message only machines it currently knows;
* a message may carry only identifiers its sender currently knows, and
  carries what its sender knew when it built the message;
* recipients learn the sender and every carried identifier at the end of
  the sending round, and act on the message in the following round.

The engine keeps the *ground-truth* knowledge, and it is the only copy:
each protocol node reads its own machine's row of it and never writes
it.  Ground truth drives the legality checks, the goal predicates, and —
via observers — the lower-bound experiments, so a buggy or adversarial
protocol cannot misreport its own progress.

One round loop serves every backend.  :meth:`SynchronousEngine.step`
runs, in order:

1. **crashes** scheduled for the round;
2. **collect** — every live, non-dormant machine runs its protocol step
   against its inbox, and with enforcement on the store checks each
   outbox (:meth:`~repro.sim.store.KnowledgeStore.check`);
3. **dispatch** — one per-kind tally for the metrics, then the whole
   outbox handed to the delivery model as one bucket when the run is
   fault-free and the model's delay uniform, or message by message
   (send-time loss, crashed recipients) otherwise;
4. **filter** — :meth:`~repro.sim.transport.DeliveryModel.arrivals` pops
   the messages due next round and drops those lost in flight (crashed
   or dormant recipient, model veto), writing the delivery log when an
   observer wants one;
5. **learn** — in delivery order, the recipient's protocol absorbs
   each message, then the store teaches the recipient the sender and the
   carried ids (:meth:`~repro.sim.store.KnowledgeStore.learn`);
6. **metrics and observers**.

With ``profile=True`` the stages are timed into :data:`PROFILE_PHASES`:
``protocol`` (collect and legality), ``dispatch``, ``deliver`` (filter
and learn) and, when observers are attached, ``observers`` (the round's
metrics close and the observer hooks); the crash step is not timed.

Delivery semantics — which round a submitted message lands, and whether
it is filtered in flight — live in the pluggable delivery models of
:mod:`repro.sim.transport` (lockstep, bounded jitter, per-link latency,
adversarial delay, partition windows).

Ground truth lives in a knowledge store (:mod:`repro.sim.store` states
the contract): the loop asks it only to ``check`` an outbox, ``learn`` a
delivery batch, hand out the ``rows`` the nodes and :attr:`knowledge`
read, ``digest`` the state, answer the goals from the knowledge
(``closed`` over all machines or the alive ones, ``weak_leader``) and
``inject`` out-of-band knowledge.  The store keeps no goal counters and
never hears about crashes.  The ``backend`` constructor parameter picks the
store:

* ``"legacy"`` — :class:`~repro.sim.store.SetStore`, per-machine sets
  walked id by id: simple, obviously correct, and the reference the
  differential runner holds the mask store to;
* ``"fast"`` — :class:`~repro.sim.mask_store.MaskStore`, one Python-int
  bitmask per machine with candidate-mask learning.

Both stores yield identical per-round digests, goal verdicts, results and
:class:`ProtocolViolation`\\ s (``tests/sim/test_fast_path_equivalence.py``,
the oracle's differential runner).  The engine constructor defaults to
the legacy store, so casual engine construction gets the
obviously-correct one; the bench harness, the CLI and
:func:`repro.discover` default to the fast store.

``enforce_legality=False`` is a *promise* that the protocol is legal,
not a license to cheat: an illegal protocol run without enforcement has
undefined ground truth (the set store happens to learn smuggled real
ids; the mask store happens not to).  Run anything untrusted with the default
``enforce_legality=True``.

See docs/PERF.md for the measured effect of each store's design.
"""

from __future__ import annotations

import math
from operator import attrgetter
from time import perf_counter
from typing import (
    AbstractSet,
    Any,
    Callable,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..graphs.idspace import dense_index
from .churn import JoinPlan
from .errors import EngineStateError, UnknownNodeError
from .faults import FaultInjector, FaultPlan
from .idset import IdUniverse
from .mask_store import MaskStore
from .messages import Message, tally_by_kind
from .metrics import DROP_CRASH, DROP_FAULT, MetricsCollector, RunResult
from .node import ProtocolNode
from .observers import Observer
from .rng import derive_rng
from .store import KnowledgeStore, SetStore
from .transport import DeliveryModel, Lockstep, parse_delivery

NodeFactory = Callable[[int], ProtocolNode]
GoalPredicate = Callable[["SynchronousEngine"], bool]

#: Named goal predicates selectable by string.
GOALS = ("strong", "weak", "strong_alive")

#: Engine execution backends selectable by string, with their stores.
STORES = {"legacy": SetStore, "fast": MaskStore}
BACKENDS = tuple(STORES)

#: Phase keys reported by the ``profile=True`` timing hooks.
PROFILE_PHASES = ("protocol", "dispatch", "deliver", "observers")

_EMPTY_INBOX: Tuple[Message, ...] = ()

#: C-level field extractor for the batched recipient-existence screen.
_recipient_of = attrgetter("recipient")


def default_max_rounds(n: int) -> int:
    """A generous default round cap: far above every shipped algorithm's
    needs (which are polylogarithmic), yet low enough that a livelocked
    protocol fails fast in tests."""
    return 200 + 60 * max(1, math.ceil(math.log2(n + 1)))


def _normalize_graph(
    graph: Union[Mapping[int, Collection[int]], Any],
) -> Dict[int, frozenset[int]]:
    """Accept a KnowledgeGraph-like object or a plain adjacency mapping."""
    if hasattr(graph, "node_ids") and hasattr(graph, "out"):
        return {node: frozenset(graph.out(node)) for node in graph.node_ids}
    if isinstance(graph, Mapping):
        return {node: frozenset(neighbors) for node, neighbors in graph.items()}
    raise TypeError(f"unsupported graph type: {type(graph).__name__}")


class SynchronousEngine:
    """Runs one protocol instance per machine in lock-step rounds.

    Args:
        graph: Initial knowledge graph — a :class:`repro.graphs.KnowledgeGraph`
            or a mapping ``{node_id: out_neighbors}``.
        node_factory: Called once per node id to build its protocol node.
        seed: Master seed; all protocol and fault randomness derives from it.
        goal: ``"strong"`` (everyone knows everyone), ``"weak"`` (some node
            knows everyone and everyone knows it), ``"strong_alive"``
            (every non-crashed node knows every non-crashed node), or a
            custom predicate over the engine.
        fault_plan: Optional :class:`repro.sim.faults.FaultPlan`.
        join_plan: Optional :class:`repro.sim.churn.JoinPlan` — machines
            listed in it are dormant (not executing, unreachable) until
            their join round.
        delivery: Delivery model — a
            :class:`repro.sim.transport.DeliveryModel` instance or a spec
            string (``"lockstep"``, ``"jitter:2"``, ``"adversarial:3"``,
            ``"perlink:2"``, ``"partition:4-8"``; see
            :func:`repro.sim.transport.parse_delivery`).  ``None`` (the
            default) means lockstep, the classic synchronous model.
        observers: Read-only observers notified per round.
        enforce_legality: Verify the recipient and the ids of every
            message against the sender's ground-truth knowledge.  The
            set store probes every carried id.  The mask store reads an
            id-set value as its bits, converts any other payload to a
            mask, and proves it with one subset test.  Benchmarks may
            disable it, tests keep it on.
        fast_path: With ``backend=None``, pick the mask store; without
            it ``backend=None`` means the set store.  This is the one home
            of the default-store rule.  Five callers pass
            ``fast_path=True``: :func:`repro.discover`,
            ``ScheduleScript.build_engine``, ``TraceWorkload.run``,
            :func:`repro.apps.census.weak_discovery` (behind
            ``leader_census`` and ``form_ring``) and the end-to-end
            benchmark's worker (``perfbench/worker.py``).  An explicit
            backend always wins over it.
        backend: Knowledge store by name — ``"legacy"`` or ``"fast"``.
            ``None`` (the default) defers to
            ``fast_path``.
        profile: Accumulate per-phase wall-clock timings (exposed as
            :attr:`phase_timings` and ``RunResult.extra["phase_timings"]``).
        algorithm_name / params: Metadata copied into the result.
    """

    def __init__(
        self,
        graph: Union[Mapping[int, Collection[int]], Any],
        node_factory: NodeFactory,
        *,
        seed: int = 0,
        goal: Union[str, GoalPredicate] = "strong",
        fault_plan: Optional[FaultPlan] = None,
        join_plan: Optional[JoinPlan] = None,
        delivery: Optional[Union[str, DeliveryModel]] = None,
        observers: Iterable[Observer] = (),
        enforce_legality: bool = True,
        fast_path: bool = False,
        backend: Optional[str] = None,
        profile: bool = False,
        algorithm_name: str = "custom",
        params: Optional[Mapping[str, Any]] = None,
    ) -> None:
        adjacency = _normalize_graph(graph)
        self.node_ids, self._index = dense_index(adjacency)
        if not self.node_ids:
            raise ValueError("cannot simulate an empty graph")
        #: The dense index that payload values (:class:`IdSet`) are built over.
        self.universe = IdUniverse(self.node_ids, self._index)
        self.n = len(self.node_ids)
        self._id_set = frozenset(self.node_ids)
        for node, neighbors in adjacency.items():
            stray = neighbors - self._id_set
            if stray:
                raise UnknownNodeError(
                    f"node {node} initially knows non-existent nodes {sorted(stray)[:5]}"
                )

        self.seed = seed
        self.goal = goal
        self._goal_fn = self._resolve_goal(goal)
        self.enforce_legality = enforce_legality
        if backend is None:
            backend = "fast" if fast_path else "legacy"
        elif backend not in STORES:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        self.backend = backend
        self.profile = bool(profile)
        self._phase_timings: Dict[str, float] = dict.fromkeys(PROFILE_PHASES, 0.0)
        self.algorithm_name = algorithm_name
        self.params: Dict[str, Any] = dict(params or {})
        self.metrics = MetricsCollector()
        self.observers: Tuple[Observer, ...] = tuple(observers)
        self._faults = FaultInjector(fault_plan, seed)
        self._joins = join_plan or JoinPlan()
        for node in self._joins.join_rounds:
            if node not in self._id_set:
                raise UnknownNodeError(f"join plan lists unknown node {node}")
        model = Lockstep() if delivery is None else parse_delivery(delivery)
        self.delivery: DeliveryModel = model.bind(self)
        self._wants_deliveries = any(
            getattr(observer, "wants_deliveries", False)
            for observer in self.observers
        )
        self._delivery_log: Optional[
            List[Tuple[Message, int, Optional[str]]]
        ] = [] if self._wants_deliveries else None

        # Ground-truth knowledge: each machine knows itself and its
        # initial out-neighbours.
        initial: Dict[int, Set[int]] = {}
        for node in self.node_ids:
            known = set(adjacency[node])
            known.add(node)
            initial[node] = known
        self._alive: Set[int] = set(self.node_ids)
        self.store: KnowledgeStore = STORES[backend](self.universe, initial)

        # Protocol nodes.
        self.nodes: Dict[int, ProtocolNode] = {}
        for node in self.node_ids:
            protocol = node_factory(node)
            if protocol.node_id != node:
                raise EngineStateError(
                    f"factory returned node id {protocol.node_id} for {node}"
                )
            protocol.bind(
                self.store.rows[node], derive_rng(seed, "node", node), self.universe
            )
            self.nodes[node] = protocol

        self.round_no = 0
        self._inboxes: Dict[int, List[Message]] = {}
        self._finished = False
        for observer in self.observers:
            observer.on_setup(self)

    @property
    def knowledge(self) -> Dict[int, AbstractSet[int]]:
        """Ground-truth knowledge, keyed by machine id: the store's rows.

        The same objects the protocol nodes read as ``known``, always
        current: the set store's ``set``\\ s, or read-only views over the
        fast store's masks.  Nothing is copied; do not write them.
        """
        return self.store.rows

    @property
    def phase_timings(self) -> Dict[str, float]:
        """Accumulated per-phase seconds (all zero unless ``profile=True``)."""
        return dict(self._phase_timings)

    # -- goal predicates ----------------------------------------------------------

    def _resolve_goal(self, goal: Union[str, GoalPredicate]) -> GoalPredicate:
        if callable(goal):
            return goal
        if goal == "strong":
            return lambda engine: engine.store.closed(engine.node_ids)
        if goal == "weak":
            return lambda engine: engine.weak_leader() is not None
        if goal == "strong_alive":
            return lambda engine: engine.store.closed(engine._alive)
        raise ValueError(f"unknown goal {goal!r}; expected one of {GOALS} or a callable")

    def weak_leader(self) -> Optional[int]:
        """The first node satisfying the weak-discovery condition, if any:
        one that knows everyone *and* is known by everyone, read from
        the store's knowledge (:meth:`~repro.sim.store.KnowledgeStore.weak_leader`).
        """
        return self.store.weak_leader()

    def inject_knowledge(self, node: int, ids: Iterable[int]) -> bool:
        """Teach *node* the machine ids *ids* out of band, effective now.

        The sanctioned host-side injection seam: the dynamic-graph
        workload mode uses it to make new contact edges appear mid-run.
        The node reads its row of the store, so it may immediately
        message its new contacts.  Both stores apply the same bits
        (:meth:`~repro.sim.store.KnowledgeStore.inject`), keeping
        cross-backend knowledge digests identical.

        Call before :meth:`step` of the round the contact should exist
        in.  Ids naming no simulated machine are ignored (the legacy
        learning rule for strays).  Returns ``False`` without effect when
        *node* has crashed — fail-stop machines learn nothing; raises
        :class:`UnknownNodeError` for a *node* that never existed.
        """
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        if node not in self._id_set:
            raise UnknownNodeError(f"unknown machine id {node}")
        if self._faults.is_crashed(node):
            return False
        new_ids = {
            target for target in ids if target in self._id_set and target != node
        }
        if new_ids:
            self.store.inject(node, new_ids)
        return True

    # -- execution -----------------------------------------------------------------

    def run(self, max_rounds: Optional[int] = None) -> RunResult:
        """Execute rounds until the goal holds or the cap is reached."""
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        cap = max_rounds if max_rounds is not None else default_max_rounds(self.n)
        completed = self._goal_fn(self)
        while not completed and self.round_no < cap:
            self.step()
            completed = self._goal_fn(self)
        self._finished = True
        for observer in self.observers:
            observer.on_finish(self, completed)
        return self._build_result(completed)

    def step(self) -> None:
        """Execute exactly one synchronous round (see the module docstring
        for its stages)."""
        if self._finished:
            raise EngineStateError("engine already finished; build a new one")
        self.round_no += 1
        round_no = self.round_no
        if self._delivery_log is not None:
            self._delivery_log = []
        for node in self._faults.apply_crashes(round_no):
            self._alive.discard(node)
            self._inboxes.pop(node, None)

        profile = self.profile
        tick = perf_counter() if profile else 0.0
        sends = self._collect()
        if profile:
            tick = self._lap("protocol", tick)
        if sends:
            self._dispatch(sends)
        if profile:
            tick = self._lap("dispatch", tick)
        self._inboxes = self.store.learn(self.delivery.arrivals(round_no + 1), self.nodes)
        if profile:
            tick = self._lap("deliver", tick)

        self.metrics.close_round(round_no)
        if self.observers:
            for observer in self.observers:
                observer.on_round_end(self, round_no)
            if profile:
                self._lap("observers", tick)

    def _lap(self, phase: str, since: float) -> float:
        """Charge the time since *since* to *phase*; return the time now."""
        now = perf_counter()
        self._phase_timings[phase] += now - since
        return now

    def _collect(self) -> List[Message]:
        """Run every live, non-dormant node against its inbox and drain
        the outboxes, each checked by the store when enforcement is on."""
        round_no = self.round_no
        crashed = self._faults.crashed_map
        joins = self._joins if self._joins.join_rounds else None
        check = self.store.check if self.enforce_legality else None
        inboxes = self._inboxes
        sends: List[Message] = []
        for node, protocol in self.nodes.items():
            if crashed and node in crashed:
                continue
            if joins is not None and joins.is_dormant(node, round_no):
                continue
            outbox = protocol.run_round(round_no, inboxes.pop(node, _EMPTY_INBOX))
            if outbox:
                if check is not None:
                    check(node, outbox)
                sends.extend(outbox)
        return sends

    def _dispatch(self, sends: List[Message]) -> None:
        """Batched per-kind accounting, then the wholesale fault-free
        uniform-delay bucket hand-off, or the per-message fault/submit
        loop otherwise."""
        round_no = self.round_no
        enforce = self.enforce_legality
        delivery = self.delivery
        log = self._delivery_log
        messages_by_kind, pointers_by_kind = tally_by_kind(sends)
        dropped_fault = 0
        dropped_crash = 0
        faults = self._faults if self._faults.plan.has_faults else None
        id_set = self._id_set
        if faults is None and delivery.uniform_delay is not None:
            # Fault-free uniform delay (lockstep being the overwhelmingly
            # common case): the whole round's outbox becomes one delivery
            # bucket wholesale.  Legality enforcement already proved every
            # recipient real; without it, one C-level superset probe
            # screens the batch and the per-message loop re-runs only to
            # raise the exact error.
            if not enforce and not id_set.issuperset(map(_recipient_of, sends)):
                for message in sends:
                    if message.recipient not in id_set:
                        raise UnknownNodeError(
                            f"node {message.sender} messaged "
                            f"non-existent node {message.recipient}"
                        )
            delivery.submit_bulk(sends, round_no)
        else:
            for message in sends:
                recipient = message.recipient
                # With legality enforcement on, the recipient is already
                # known to be a real machine (it appears in the sender's
                # ground truth, which only ever holds real ids).
                if not enforce and recipient not in id_set:
                    raise UnknownNodeError(
                        f"node {message.sender} messaged non-existent node {recipient}"
                    )
                if faults is not None:
                    reason = faults.send_drop_reason(message.sender, recipient)
                    if reason is not None:
                        if reason is DROP_CRASH:
                            dropped_crash += 1
                        else:
                            dropped_fault += 1
                        if log is not None:
                            log.append((message, 0, reason))
                        continue
                delivery.submit(message, round_no)
        # Only non-zero counts: each entry adds its reason to the result.
        dropped = ((DROP_FAULT, dropped_fault), (DROP_CRASH, dropped_crash))
        self.metrics.record_batch(
            messages_by_kind,
            pointers_by_kind,
            {reason: count for reason, count in dropped if count},
        )

    # -- results -------------------------------------------------------------------

    @property
    def alive_nodes(self) -> frozenset[int]:
        return frozenset(self._alive)

    @property
    def crashed_nodes(self) -> frozenset[int]:
        return self._faults.crashed_nodes

    def is_strongly_complete(self) -> bool:
        """Whether every machine knows every machine right now."""
        return self.store.closed(self.node_ids)

    def goal_reached(self) -> bool:
        """Whether the run's goal predicate holds right now.

        A read-only probe of the same predicate :meth:`run` consults after
        every step; external drivers (the differential runner, manual
        ``step()`` loops) use it to stop without calling :meth:`run`.
        """
        return bool(self._goal_fn(self))

    def knowledge_digest(self) -> str:
        """Canonical SHA-256 digest of the ground-truth knowledge state.

        Both stores digest the same byte string: each machine's
        knowledge rendered as a little-endian dense bitmask (bit ``i`` =
        ``node_ids[i]``), concatenated in sorted-id order — so engines on
        different backends in the same state produce the same digest,
        which is what the differential runner diffs round by round, and
        the set store's digest is the one the live runtime computes
        (:func:`repro.graphs.knowledge.digest_knowledge`).  Ids naming
        no simulated machine never enter ground truth.
        """
        return self.store.digest()

    def _build_result(self, completed: bool) -> RunResult:
        extra: Dict[str, Any] = {}
        for observer in self.observers:
            extra.update(observer.extra())
        if self.profile:
            extra["phase_timings"] = dict(self._phase_timings)
        return RunResult(
            algorithm=self.algorithm_name,
            n=self.n,
            seed=self.seed,
            completed=completed,
            rounds=self.round_no,
            messages=self.metrics.total_messages,
            pointers=self.metrics.total_pointers,
            dropped_messages=self.metrics.total_dropped,
            messages_by_kind=dict(self.metrics.messages_by_kind),
            pointers_by_kind=dict(self.metrics.pointers_by_kind),
            dropped_by_reason=dict(self.metrics.dropped_by_reason),
            delivery_delays=dict(self.metrics.delivery_delays),
            round_stats=tuple(self.metrics.round_stats),
            params=dict(self.params),
            extra=extra,
        )
