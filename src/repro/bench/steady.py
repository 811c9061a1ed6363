"""Synthetic steady-state kernels for large-n engine benchmarks.

The record-and-replay kernel (:mod:`repro.bench.replay`) measures the
engine in a *real* protocol's heaviest rounds, but producing a recording
requires running the protocol end to end on the legacy path — minutes at
n = 4096 and out of reach at n = 10^5.  This module manufactures the
steady-state regime directly: it builds an engine whose ground-truth
knowledge is already (nearly) complete, with a small population of
*laggards* missing a seeded sample of ids, and drives it with scheduled
nodes that re-broadcast slices of the id space to rotating neighbors.
That is exactly the traffic shape of a gossip run's final rounds — peak
pointer volume, almost every delivery teaching nothing — without paying
for the ramp-up.

Knowledge is injected through the engine's knowledge store, which
rebuilds all derived counters, so the three backends start
digest-identical and stay digest-identical through the window (asserted
by ``tests/bench/test_steady.py``).  The scheduled nodes do no protocol
work of their own — they never read their rows — so a timed window
isolates the engine's dispatch/screen/learn kernel, like a replay does.

Injection bypasses the engine's constructor invariants on purpose: it
writes knowledge no delivery carried, outside the model that legality
enforcement holds protocols to, so it requires
``enforce_legality=False``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from ..sim.engine import SynchronousEngine
from ..sim.messages import Message
from ..sim.node import ProtocolNode
from ..sim.rng import derive_seed


@dataclass(frozen=True)
class SteadySpec:
    """Shape of one synthetic steady-state workload.

    Attributes:
        n: Machine count; ids are the dense integers ``0..n-1``.
        window: Rounds the kernel drives (each is one engine step).
        senders_per_round: Approximate number of complete nodes that
            transmit each round (spread evenly over the id space).
            ``None`` means every complete node sends every round.
        pointers_per_message: Ids carried per message, as a contiguous
            (wrapping) slice of the id space rotated per round.  ``None``
            means the full id space — the true steady-state payload, but
            only the vector backend can afford it at large n.
        laggards: Number of tail nodes still missing knowledge.  They
            receive but never send, and they are the only nodes for whom
            a delivery can teach anything.
        missing_per_laggard: Ids each laggard is missing (seeded sample).
        shared_missing: All laggards miss the *same* sample (a late-join
            cohort) instead of per-laggard samples.  Required when the
            laggard population is large — distinct samples cost
            ``laggards * missing_per_laggard`` memory, a shared one
            costs ``missing_per_laggard``.
        seed: Master seed; every derived choice (payload rotation, hop
            offsets, missing samples) is deterministic in it.
    """

    n: int
    window: int = 3
    senders_per_round: Optional[int] = None
    pointers_per_message: Optional[int] = None
    laggards: int = 64
    missing_per_laggard: int = 256
    shared_missing: bool = False
    seed: int = 11

    @property
    def bytes_per_node(self) -> int:
        """Packed-row width of one node's knowledge on the vector backend."""
        return (self.n + 7) >> 3

    @property
    def matrix_mb(self) -> float:
        """Vector-backend knowledge-matrix footprint in MiB."""
        return round(self.n * self.bytes_per_node / (1 << 20), 1)


class SteadyNode(ProtocolNode):
    """A scheduled sender that keeps no state.

    Subclassing binds the schedule as class attributes (the engine's
    factory protocol only passes a node id).
    """

    _n: int = 0
    _stride: int = 1
    _first_laggard: int = 0
    _payloads: Dict[int, FrozenSet[int]] = {}
    _hops: Dict[int, int] = {}

    def on_round(self, round_no: int, inbox, rng) -> Optional[List[Message]]:
        payload = self._payloads.get(round_no)
        if payload is None or self.node_id >= self._first_laggard:
            return None
        if (self.node_id - round_no) % self._stride:
            return None
        recipient = (self.node_id + self._hops[round_no]) % self._n
        return [Message("steady", self.node_id, recipient, payload)]


def ring_adjacency(n: int) -> Dict[int, FrozenSet[int]]:
    """Cheap O(n) bootstrap topology for injected engines."""
    return {
        i: frozenset({(i - 1) % n, (i + 1) % n}) for i in range(n)
    }


def laggard_missing(spec: SteadySpec) -> Dict[int, Set[int]]:
    """Seeded per-laggard missing-id samples.

    Samples avoid id 0 and everything at or above ``n - laggards - 2``,
    so no laggard is ever missing itself, a ring neighbor, or another
    laggard — keeping the injected state a plausible late-run snapshot.
    With ``shared_missing`` one sample object is shared by every laggard
    (the injector exploits the sharing; never mutate these sets).
    """
    n, count = spec.n, min(spec.laggards, max(0, spec.n - 4))
    first = n - count
    upper = max(1, first - 2)
    k = min(spec.missing_per_laggard, max(0, upper - 1))
    if spec.shared_missing:
        rng = random.Random(derive_seed(spec.seed, "steady-missing", -1))
        sample = set(rng.sample(range(1, upper), k)) if k > 0 else set()
        return {node: sample for node in range(first, n)}
    missing: Dict[int, Set[int]] = {}
    for node in range(first, n):
        rng = random.Random(derive_seed(spec.seed, "steady-missing", node))
        missing[node] = set(rng.sample(range(1, upper), k)) if k > 0 else set()
    return missing


def inject_steady_state(
    engine: SynchronousEngine,
    missing_by_node: Mapping[int, Set[int]],
) -> None:
    """Overwrite *engine*'s ground truth with near-complete knowledge.

    Every node knows the full id space except the listed missing ids;
    the engine's store rebuilds all derived counters, so the engine is
    indistinguishable from one that ran its way into this state
    (:meth:`~repro.sim.store.KnowledgeStore.inject_near_complete`).
    Works on all three backends.  Nodes sharing one missing-set object
    form one group, so on the fast and vector backends shared samples
    are translated once and the cost stays O(n + distinct samples), not
    O(n^2); the legacy backend fills one set per node.
    """
    if engine.enforce_legality:
        raise ValueError(
            "steady-state injection requires enforce_legality=False; it "
            "writes knowledge that no delivery carried"
        )
    groups: Dict[int, Tuple[Set[int], List[int]]] = {}
    for node, sample in missing_by_node.items():
        if sample:
            groups.setdefault(id(sample), (sample, []))[1].append(node)
    engine.store.inject_near_complete(groups.values())


def build_steady_engine(spec: SteadySpec, backend: str) -> Tuple[SynchronousEngine, int]:
    """Build an injected engine plus the window's total pointer count.

    Step the engine ``spec.window`` times to execute the workload; the
    returned pointer count is what the engine's metrics will report for
    those rounds (useful for ns/pointer without reading metrics early).
    """
    n = spec.n
    first_laggard = n - min(spec.laggards, max(0, n - 4))
    stride = 1
    if spec.senders_per_round is not None:
        stride = max(1, n // max(1, spec.senders_per_round))

    size = spec.pointers_per_message
    payloads: Dict[int, FrozenSet[int]] = {}
    full_payload: Optional[FrozenSet[int]] = None
    hops: Dict[int, int] = {}
    window_pointers = 0
    for round_no in range(1, spec.window + 1):
        if size is None or size >= n:
            if full_payload is None:
                full_payload = frozenset(range(n))
            payloads[round_no] = full_payload
        else:
            base = derive_seed(spec.seed, "steady-payload", round_no) % n
            payloads[round_no] = frozenset(
                (base + j) % n for j in range(size)
            )
        hops[round_no] = derive_seed(spec.seed, "steady-hop", round_no) % (n - 1) + 1
        senders = sum(
            1
            for i in range(first_laggard)
            if (i - round_no) % stride == 0
        )
        window_pointers += senders * len(payloads[round_no])

    node_type = type(
        "BoundSteadyNode",
        (SteadyNode,),
        {
            "_n": n,
            "_stride": stride,
            "_first_laggard": first_laggard,
            "_payloads": payloads,
            "_hops": hops,
        },
    )
    engine = SynchronousEngine(
        ring_adjacency(n),
        node_type,
        seed=spec.seed,
        enforce_legality=False,
        backend=backend,
        algorithm_name=f"steady:{spec.n}",
    )
    inject_steady_state(engine, laggard_missing(spec))
    return engine, window_pointers


def run_steady_window(spec: SteadySpec, backend: str) -> List[str]:
    """Drive one window and return the per-round knowledge digests.

    The cross-backend equivalence test compares these lists; benchmarks
    time :func:`build_steady_engine` + ``engine.step()`` directly
    instead, keeping digesting out of the measured region.
    """
    engine, _ = build_steady_engine(spec, backend)
    digests = []
    for _ in range(spec.window):
        engine.step()
        digests.append(engine.knowledge_digest())
    return digests
