"""The knowledge graph: who initially knows whom.

A :class:`KnowledgeGraph` is an immutable directed graph over machine
identifiers.  An edge ``u -> v`` means "u knows v's address".  The
resource-discovery problem assumes the input is *weakly connected* — the
undirected closure is connected — since otherwise complete discovery is
information-theoretically impossible.

Identifiers are opaque: algorithms may compare them but the namespace is
arbitrary (see :mod:`repro.graphs.idspace` for dense vs. random-label
namespaces).  The graph offers the undirected-metric utilities (balls,
eccentricities, diameter) needed by the lower-bound machinery of
:mod:`repro.analysis.invariants`.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)


class KnowledgeGraph:
    """Immutable directed knowledge graph.

    Args:
        adjacency: Mapping from node id to an iterable of out-neighbors.
            Every referenced neighbor must itself appear as a key.
            Self-loops are ignored (every machine implicitly knows itself).
    """

    __slots__ = ("_out", "_node_ids", "_undirected", "_edge_count")

    def __init__(self, adjacency: Mapping[int, Iterable[int]]) -> None:
        out: Dict[int, FrozenSet[int]] = {}
        for node, neighbors in adjacency.items():
            out[node] = frozenset(v for v in neighbors if v != node)
        node_set = frozenset(out)
        for node, neighbors in out.items():
            stray = neighbors - node_set
            if stray:
                raise ValueError(
                    f"node {node} references unknown neighbors {sorted(stray)[:5]}"
                )
        self._out = out
        self._node_ids: Tuple[int, ...] = tuple(sorted(out))
        self._undirected: Optional[Dict[int, FrozenSet[int]]] = None
        self._edge_count = sum(len(neighbors) for neighbors in out.values())

    # -- basic accessors -----------------------------------------------------------

    @property
    def node_ids(self) -> Tuple[int, ...]:
        """All node identifiers, sorted ascending."""
        return self._node_ids

    @property
    def n(self) -> int:
        return len(self._node_ids)

    @property
    def edge_count(self) -> int:
        """Number of directed knowledge edges (self-knowledge excluded)."""
        return self._edge_count

    def out(self, node: int) -> FrozenSet[int]:
        """Out-neighbors: the machines *node* initially knows."""
        return self._out[node]

    def __contains__(self, node: int) -> bool:
        return node in self._out

    def __iter__(self) -> Iterator[int]:
        return iter(self._node_ids)

    def __len__(self) -> int:
        return len(self._node_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self._out == other._out

    def __hash__(self) -> int:
        return hash(tuple(sorted((u, tuple(sorted(vs))) for u, vs in self._out.items())))

    def __repr__(self) -> str:
        return f"KnowledgeGraph(n={self.n}, edges={self.edge_count})"

    def adjacency(self) -> Dict[int, FrozenSet[int]]:
        """A copy of the out-adjacency mapping."""
        return dict(self._out)

    # -- undirected closure ----------------------------------------------------------

    def undirected(self, node: int) -> FrozenSet[int]:
        """Neighbors of *node* in the undirected closure."""
        return self._undirected_adjacency()[node]

    def _undirected_adjacency(self) -> Dict[int, FrozenSet[int]]:
        if self._undirected is None:
            building: Dict[int, Set[int]] = {node: set() for node in self._node_ids}
            for node, neighbors in self._out.items():
                for neighbor in neighbors:
                    building[node].add(neighbor)
                    building[neighbor].add(node)
            self._undirected = {
                node: frozenset(neighbors) for node, neighbors in building.items()
            }
        return self._undirected

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components()) == 1

    def weak_components(self) -> List[FrozenSet[int]]:
        """Connected components of the undirected closure."""
        undirected = self._undirected_adjacency()
        seen: Set[int] = set()
        components: List[FrozenSet[int]] = []
        for start in self._node_ids:
            if start in seen:
                continue
            component: Set[int] = set()
            queue = deque([start])
            seen.add(start)
            while queue:
                node = queue.popleft()
                component.add(node)
                for neighbor in undirected[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
            components.append(frozenset(component))
        return components

    # -- undirected metric utilities ----------------------------------------------------

    def undirected_distances(self, source: int) -> Dict[int, int]:
        """BFS distances from *source* in the undirected closure.

        Unreachable nodes are absent from the result (only possible when
        the graph is not weakly connected).
        """
        undirected = self._undirected_adjacency()
        distances = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            next_distance = distances[node] + 1
            for neighbor in undirected[node]:
                if neighbor not in distances:
                    distances[neighbor] = next_distance
                    queue.append(neighbor)
        return distances

    def undirected_ball(self, center: int, radius: int) -> FrozenSet[int]:
        """All nodes within undirected distance *radius* of *center*."""
        if radius < 0:
            return frozenset()
        undirected = self._undirected_adjacency()
        ball = {center}
        frontier = [center]
        for _ in range(radius):
            next_frontier: List[int] = []
            for node in frontier:
                for neighbor in undirected[node]:
                    if neighbor not in ball:
                        ball.add(neighbor)
                        next_frontier.append(neighbor)
            if not next_frontier:
                break
            frontier = next_frontier
        return frozenset(ball)

    def eccentricity(self, node: int) -> int:
        """Maximum undirected distance from *node* (graph must be connected)."""
        distances = self.undirected_distances(node)
        if len(distances) != self.n:
            raise ValueError("eccentricity undefined: graph is not weakly connected")
        return max(distances.values())

    def undirected_diameter(self, exact: bool = True) -> int:
        """Diameter of the undirected closure.

        With ``exact=False`` a double-sweep BFS lower bound is returned
        (equal to the diameter on trees and usually tight in practice) at
        O(E) cost instead of O(nE).
        """
        if self.n == 1:
            return 0
        if not self.is_weakly_connected():
            raise ValueError("diameter undefined: graph is not weakly connected")
        if exact:
            return max(self.eccentricity(node) for node in self._node_ids)
        first = self.undirected_distances(self._node_ids[0])
        far_node = max(first, key=lambda node: first[node])
        second = self.undirected_distances(far_node)
        return max(second.values())

    # -- derived graphs -------------------------------------------------------------------

    def reversed(self) -> "KnowledgeGraph":
        """The graph with every knowledge edge reversed."""
        reversed_adj: Dict[int, Set[int]] = {node: set() for node in self._node_ids}
        for node, neighbors in self._out.items():
            for neighbor in neighbors:
                reversed_adj[neighbor].add(node)
        return KnowledgeGraph(reversed_adj)

    def relabeled(self, mapping: Mapping[int, int]) -> "KnowledgeGraph":
        """Apply an id bijection (see :mod:`repro.graphs.idspace`)."""
        image = set(mapping.values())
        if len(image) != len(self._node_ids) or set(mapping) != set(self._node_ids):
            raise ValueError("relabeling must be a bijection over the node ids")
        return KnowledgeGraph(
            {
                mapping[node]: [mapping[neighbor] for neighbor in neighbors]
                for node, neighbors in self._out.items()
            }
        )

    def degree_stats(self) -> Dict[str, float]:
        """Min/mean/max out-degree, for workload characterization tables."""
        degrees = [len(self._out[node]) for node in self._node_ids]
        return {
            "min": float(min(degrees)),
            "mean": sum(degrees) / len(degrees),
            "max": float(max(degrees)),
        }


def complete_knowledge(node_ids: Sequence[int]) -> KnowledgeGraph:
    """The complete graph — the target state of strong discovery."""
    universe = frozenset(node_ids)
    return KnowledgeGraph({node: universe - {node} for node in node_ids})


def digest_knowledge(knowledge: Mapping[int, Iterable[int]]) -> str:
    """Canonical SHA-256 digest of a knowledge state.

    Each machine's knowledge is rendered as a little-endian dense bitmask
    (bit ``i`` = the ``i``-th smallest node id), and the per-machine masks
    are concatenated in ascending-id order before hashing.  This is the
    byte layout every host of the protocol core agrees on — the simulator's
    two backends and the live asyncio runtime all reduce their final
    state to this digest, which is how cross-host runs are checked for
    bit-identity.  Ids naming no machine in ``knowledge`` are ignored,
    keeping the digest well-defined when legality enforcement is off.

    The machine's own id is expected to be present in its knowledge set
    (every machine knows itself); callers holding self-less sets must add
    it back before digesting.
    """
    node_ids = sorted(knowledge)
    index = {node: position for position, node in enumerate(node_ids)}
    nbytes = (len(node_ids) + 7) >> 3
    digest = hashlib.sha256()
    for node in node_ids:
        buf = bytearray(nbytes)
        for target in knowledge[node]:
            bit = index.get(target)
            if bit is not None:
                buf[bit >> 3] |= 1 << (bit & 7)
        digest.update(bytes(buf))
    return digest.hexdigest()
