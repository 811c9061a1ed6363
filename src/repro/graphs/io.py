"""Knowledge-graph serialization and interop.

Formats:

* **edge list** — one ``u v`` pair per line plus ``# node u`` lines for
  isolated-out nodes; the lowest-common-denominator exchange format.
* **JSON** — ``{"nodes": [...], "edges": [[u, v], ...]}`` with sorted,
  deterministic output (diffs cleanly).
* **networkx** — conversion to/from ``networkx.DiGraph`` for users who
  want its algorithm zoo on the side.  networkx is a dev extra, imported
  only inside :func:`to_networkx`, so the rest of the package works
  without it.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Dict, Set

from .knowledge import KnowledgeGraph

if TYPE_CHECKING:
    import networkx as nx


def to_edge_list(graph: KnowledgeGraph, stream: IO[str]) -> int:
    """Write *graph* as an edge list; returns the number of lines."""
    lines = 0
    for node in graph.node_ids:
        neighbors = sorted(graph.out(node))
        if not neighbors:
            stream.write(f"# node {node}\n")
            lines += 1
        for neighbor in neighbors:
            stream.write(f"{node} {neighbor}\n")
            lines += 1
    return lines


def from_edge_list(stream: IO[str]) -> KnowledgeGraph:
    """Parse an edge list written by :func:`to_edge_list`."""
    adjacency: Dict[int, Set[int]] = {}
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 3 and parts[1] == "node":
                adjacency.setdefault(int(parts[2]), set())
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line: {line!r}")
        source, target = int(parts[0]), int(parts[1])
        adjacency.setdefault(source, set()).add(target)
        adjacency.setdefault(target, set())
    if not adjacency:
        raise ValueError("edge list contained no nodes")
    return KnowledgeGraph(adjacency)


def to_json(graph: KnowledgeGraph) -> str:
    """Serialize *graph* as deterministic JSON."""
    edges = sorted(
        (node, neighbor)
        for node in graph.node_ids
        for neighbor in graph.out(node)
    )
    return json.dumps(
        {"nodes": list(graph.node_ids), "edges": [list(edge) for edge in edges]},
        separators=(",", ":"),
    )


def from_json(payload: str) -> KnowledgeGraph:
    """Parse JSON produced by :func:`to_json`."""
    raw = json.loads(payload)
    if not isinstance(raw, dict) or "nodes" not in raw or "edges" not in raw:
        raise ValueError("expected an object with 'nodes' and 'edges'")
    adjacency: Dict[int, Set[int]] = {int(node): set() for node in raw["nodes"]}
    for edge in raw["edges"]:
        source, target = int(edge[0]), int(edge[1])
        if source not in adjacency or target not in adjacency:
            raise ValueError(f"edge ({source}, {target}) references unknown node")
        adjacency[source].add(target)
    if not adjacency:
        raise ValueError("graph has no nodes")
    return KnowledgeGraph(adjacency)


def to_networkx(graph: KnowledgeGraph) -> "nx.DiGraph":
    """Convert to a ``networkx.DiGraph``."""
    import networkx as nx

    digraph = nx.DiGraph()
    digraph.add_nodes_from(graph.node_ids)
    for node in graph.node_ids:
        for neighbor in graph.out(node):
            digraph.add_edge(node, neighbor)
    return digraph


def from_networkx(digraph: "nx.DiGraph") -> KnowledgeGraph:
    """Convert from a ``networkx`` directed graph."""
    adjacency: Dict[int, Set[int]] = {
        int(node): set() for node in digraph.nodes
    }
    for source, target in digraph.edges:
        adjacency[int(source)].add(int(target))
    if not adjacency:
        raise ValueError("graph has no nodes")
    return KnowledgeGraph(adjacency)
