"""Structured overlays from a discovered roster.

The two classic constructions that motivate resource discovery:

* **Sorted identifier ring** — the backbone of consistent-hashing DHTs.
  After *weak* discovery (a coordinator knows everyone), the coordinator
  computes each peer's ring successor and ships it out: O(n) pointers
  total, versus the Θ(n²) a full roster broadcast would cost.
* **k-ary broadcast tree** — a dissemination tree rooted anywhere,
  depth ⌈log_k n⌉, for later one-to-all messaging.

The construction functions are pure (roster in, structure out) so they
are directly testable; :func:`form_ring` is the end-to-end convenience
that runs weak discovery on a knowledge graph and returns the ring plus
the measured discovery cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..graphs.knowledge import KnowledgeGraph
from ..sim.metrics import RunResult
from .census import weak_discovery


def ring_successors(roster: Sequence[int]) -> Dict[int, int]:
    """Successor map of the sorted identifier ring over *roster*."""
    if not roster:
        raise ValueError("cannot build a ring over an empty roster")
    ordered = sorted(set(roster))
    if len(ordered) != len(roster):
        raise ValueError("roster contains duplicate identifiers")
    return {
        peer: ordered[(index + 1) % len(ordered)]
        for index, peer in enumerate(ordered)
    }


def verify_ring(successors: Mapping[int, int]) -> bool:
    """True iff *successors* is a single cycle covering all its keys."""
    if not successors:
        return False
    start = min(successors)
    seen = set()
    current = start
    for _ in range(len(successors)):
        if current in seen or current not in successors:
            return False
        seen.add(current)
        current = successors[current]
    return current == start and len(seen) == len(successors)


def broadcast_tree(
    roster: Sequence[int], root: Optional[int] = None, arity: int = 2
) -> Dict[int, List[int]]:
    """Children map of a k-ary dissemination tree over *roster*.

    The root defaults to the smallest identifier; remaining peers fill a
    complete k-ary tree in sorted order (deterministic, so every peer can
    recompute the same tree locally from the same roster).
    """
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    ordered = sorted(set(roster))
    if not ordered:
        raise ValueError("cannot build a tree over an empty roster")
    if root is None:
        root = ordered[0]
    if root not in set(ordered):
        raise ValueError(f"root {root} is not in the roster")
    ordered.remove(root)
    ordered.insert(0, root)
    children: Dict[int, List[int]] = {peer: [] for peer in ordered}
    for index in range(1, len(ordered)):
        parent = ordered[(index - 1) // arity]
        children[parent].append(ordered[index])
    return children


def tree_depth(children: Mapping[int, List[int]], root: int) -> int:
    """Depth of the tree rooted at *root* (single node = 0)."""
    depth = 0
    frontier = [root]
    visited = {root}
    while True:
        next_frontier: List[int] = []
        for node in frontier:
            for child in children.get(node, []):
                if child in visited:
                    raise ValueError("children map contains a cycle")
                visited.add(child)
                next_frontier.append(child)
        if not next_frontier:
            return depth
        frontier = next_frontier
        depth += 1


@dataclass(frozen=True)
class RingResult:
    """Outcome of :func:`form_ring`."""

    coordinator: int
    successors: Mapping[int, int]
    discovery: RunResult

    @property
    def n(self) -> int:
        return len(self.successors)

    @property
    def distribution_pointers(self) -> int:
        """Pointers the coordinator ships to install the ring: one
        successor per peer (itself excluded)."""
        return self.n - 1

    @property
    def naive_broadcast_pointers(self) -> int:
        """What a full roster broadcast would have cost instead."""
        return self.n * (self.n - 1)


def form_ring(
    graph: KnowledgeGraph,
    seed: int = 0,
    algorithm: str = "sublog",
    max_rounds: Optional[int] = None,
    delivery: Optional[str] = None,
) -> RingResult:
    """Run weak discovery on *graph* and build the sorted ring.

    ``delivery`` selects a delivery-model spec string (``None`` =
    lockstep).  Raises ``RuntimeError`` when discovery does not complete
    within the round cap (it always completes on weakly connected inputs
    with the shipped algorithms; the error guards misuse).
    """
    result, coordinator, roster = weak_discovery(graph, seed, algorithm, max_rounds, delivery)
    return RingResult(
        coordinator=coordinator,
        successors=ring_successors(roster),
        discovery=result,
    )


def expected_tree_depth(n: int, arity: int = 2) -> int:
    """Closed-form depth of the complete k-ary tree over n nodes."""
    if n <= 1:
        return 0
    if arity == 1:
        return n - 1
    # Smallest d with (arity^(d+1) - 1) / (arity - 1) >= n.
    depth = 0
    capacity = 1
    layer = 1
    while capacity < n:
        layer *= arity
        capacity += layer
        depth += 1
    return depth
