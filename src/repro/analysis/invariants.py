"""Runtime invariant checkers.

**Ball containment** ties the simulator to the theory (DESIGN.md
section 1): for every algorithm, after t rounds a machine can know only
machines within undirected distance 2^t of it in the initial graph.
This is the information-propagation lower bound; checking it at runtime
simultaneously validates the simulator (no illegal channel exists) and
every algorithm (no cheating).  Knowledge monotonicity and the rest of
the catalog are checked by :class:`repro.oracle.InvariantOracle`.

The checker is an observer; attach it via ``discover(observers=[...])``.
It records violations and can raise immediately (``strict=True``).
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..graphs.knowledge import KnowledgeGraph
from ..sim.observers import Observer

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import SynchronousEngine


class InvariantViolation(AssertionError):
    """An invariant checker observed an impossible state."""


# -- knowledge-closure predicates ---------------------------------------------------
#
# Pure functions over plain ``{node: known_ids}`` mappings, independent of
# any engine.  They define what "discovery finished" *means*, so the
# simulation oracle (``repro.oracle``) recomputes goal predicates through
# them rather than trusting the engine's incremental counters.


def closure_deficit(
    knowledge: Mapping[int, Collection[int]],
    universe: Optional[Iterable[int]] = None,
    holders: Optional[Iterable[int]] = None,
) -> List[Tuple[int, int]]:
    """Pairs ``(holder, target)`` still missing from full closure.

    A knowledge state is *closed* (strong discovery) when every holder
    knows every target.  ``universe`` is the target set each holder must
    know (default: the mapping's keys); ``holders`` is the set of nodes
    required to be complete (default: the universe).  Self-knowledge is
    not required: ``(v, v)`` never appears in the deficit.

    The returned pairs are sorted, so tests can assert on them exactly.
    """
    targets = frozenset(universe if universe is not None else knowledge)
    required = frozenset(holders if holders is not None else targets)
    missing: List[Tuple[int, int]] = []
    for holder in sorted(required):
        known = knowledge.get(holder, ())
        for target in sorted(targets - frozenset(known)):
            if target != holder:
                missing.append((holder, target))
    return missing


def is_knowledge_closed(
    knowledge: Mapping[int, Collection[int]],
    universe: Optional[Iterable[int]] = None,
    holders: Optional[Iterable[int]] = None,
) -> bool:
    """Whether :func:`closure_deficit` is empty (strong discovery holds)."""
    return not closure_deficit(knowledge, universe=universe, holders=holders)


def weak_closure_witnesses(
    knowledge: Mapping[int, Collection[int]],
) -> List[int]:
    """Nodes satisfying the weak-discovery condition, sorted.

    A witness knows every node *and* is known by every node.  Weak
    discovery holds iff at least one witness exists.
    """
    universe = frozenset(knowledge)
    complete = [
        node
        for node in sorted(universe)
        if not (universe - frozenset(knowledge[node]) - {node})
    ]
    witnesses: List[int] = []
    for candidate in complete:
        if all(
            candidate in knowledge[other] or other == candidate
            for other in universe
        ):
            witnesses.append(candidate)
    return witnesses


class BallContainmentObserver(Observer):
    """Checks knowledge_t(v) ⊆ B_{2^t}(v) every round.

    Cost: one all-pairs BFS at setup (O(n·E)) plus O(total knowledge) per
    round — intended for test- and experiment-scale runs (n up to a few
    thousand).  Checking stops automatically once 2^t reaches the graph
    diameter, after which the bound is vacuous.

    Args:
        graph: The *initial* knowledge graph of the run.
        strict: Raise :class:`InvariantViolation` on the first violation
            instead of merely recording it.
    """

    def __init__(self, graph: KnowledgeGraph, strict: bool = True) -> None:
        self.graph = graph
        self.strict = strict
        self.violations: List[Dict[str, int]] = []
        self.max_radius_by_round: List[int] = []
        self._distances: Dict[int, Dict[int, int]] = {}
        self._diameter = 0
        self._done = False

    def on_setup(self, engine: "SynchronousEngine") -> None:
        if set(engine.node_ids) != set(self.graph.node_ids):
            raise ValueError("observer graph does not match the engine's node set")
        for node in self.graph.node_ids:
            self._distances[node] = self.graph.undirected_distances(node)
        self._diameter = max(
            max(per_node.values()) for per_node in self._distances.values()
        )

    def on_round_end(self, engine: "SynchronousEngine", round_no: int) -> None:
        if self._done:
            return
        allowed = 1 << round_no  # 2^round_no
        observed_max = 0
        for node in engine.node_ids:
            distances = self._distances[node]
            for known in engine.knowledge[node]:
                distance = distances.get(known)
                if distance is None:
                    continue  # different weak component (fault scenarios)
                if distance > observed_max:
                    observed_max = distance
                if distance > allowed:
                    record = {
                        "round": round_no,
                        "node": node,
                        "knows": known,
                        "distance": distance,
                        "allowed": allowed,
                    }
                    self.violations.append(record)
                    if self.strict:
                        raise InvariantViolation(
                            f"round {round_no}: node {node} knows {known} at "
                            f"undirected distance {distance} > 2^t = {allowed}"
                        )
        self.max_radius_by_round.append(observed_max)
        if allowed >= self._diameter:
            self._done = True  # bound is vacuous from here on

    def extra(self) -> Dict[str, Any]:
        return {
            "ball_violations": list(self.violations),
            "max_knowledge_radius": list(self.max_radius_by_round),
        }
