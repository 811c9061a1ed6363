"""Definitions shared by the benchmark's orchestrator, worker and client.

Nothing here imports ``repro``: the orchestrator (``run.py``) must be able
to load this module in a checkout that has no program source, so that it
can fail cleanly there.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Sequence

#: Workload name -> parameters of one discovery run.  ``kind`` selects
#: the host: ``sim`` runs the synchronous engine, ``live`` a loopback
#: cluster of asyncio nodes.  ``inputs`` is the number of seeds a worker
#: repeats in turn, so that one seed's round count (sublog: 20, now and
#: then 26, at n = 2048; live sublog: 15, for ~5% of seeds 21, at n = 32)
#: moves a figure by a fraction.
WORKLOADS: Dict[str, Dict] = {
    "sim-sublog-enforced": {
        "kind": "sim",
        "algorithm": "sublog",
        "topology": "kout",
        "n": 2048,
        "delivery": None,  # lockstep
        "enforce_legality": True,
        "queries": 1000,
        "inputs": 2,
    },
    "live-sublog": {
        "kind": "live",
        "algorithm": "sublog",
        "topology": "kout",
        "n": 32,
        "connections": 2,
        "queries": 8000,
        "inputs": 5,
    },
}

#: End-to-end metrics, printed with ``--trace 0``.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "query_per_s": "1/s",
}

#: Per-layer metrics, printed with ``--trace 1``.  A layer a workload
#: never enters reports 0.
PER_LAYER: Dict[str, str] = {
    "pkg.import_s": "s",
    "graphs.make_topology_s": "s",
    "graphs.knowledge_digest_s": "s",
    "sim.engine.init_s": "s",
    "algorithms.run_round_s": "s",
    "algorithms.calls": "count",
    "algorithms.messages": "count",
    "algorithms.pointers": "count",
    "sim.legality_s": "s",
    "sim.dispatch_s": "s",
    "sim.deliver_s": "s",
    "sim.transport_s": "s",
    "sim.rounds": "count",
    "sim.messages": "count",
    "sim.pointers": "count",
    "sim.bits": "count",
    "sim.useful_pointer_ratio": "ratio",
    "live.cluster.start_s": "s",
    "live.rounds": "count",
    "live.round_ms": "ms",
    "live.loop_other_s": "s",
    "live.wire.encode_s": "s",
    "live.wire.decode_s": "s",
    "live.frames_out": "count",
    "live.frames_out.ptrs": "count",
    "live.frames_out.eor": "count",
    "live.frames_out.hello": "count",
    "live.bytes_out": "count",
    "live.frames_per_message": "ratio",
    "live.bytes_per_pointer": "B",
    "live.model_bytes_per_pointer": "B",
    "client.census_ms.p50": "ms",
    "client.census_ms.p99": "ms",
    "client.succ_ms.p50": "ms",
    "client.succ_ms.p99": "ms",
    "trace.overhead_pct": "%",
}

#: Per-layer metrics of the set-up phase, taken from each process's
#: first (cold) run, as ``setup_s`` is; the others come from warm runs.
SETUP_LAYERS = ("graphs.make_topology_s", "sim.engine.init_s", "live.cluster.start_s")

#: Per-layer metrics that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "sim.rounds",
    "sim.messages",
    "sim.pointers",
    "sim.bits",
    "live.frames_out",
    "live.bytes_out",
)

#: Values ``--inject`` accepts: deliberate failures the benchmark must
#: count (used by its own tests).
INJECTIONS = ("incomplete-run", "corrupt-answer")


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def ring_map(roster: Sequence[int]) -> Dict[int, int]:
    """Successor of every id on the sorted identifier ring over *roster*."""
    ordered = sorted(roster)
    return {peer: ordered[(i + 1) % len(ordered)] for i, peer in enumerate(ordered)}


def census_ok(reply: Mapping, roster: Sequence[int]) -> bool:
    """A census answer names the smallest id as leader and counts everyone."""
    return reply.get("leader") == min(roster) and reply.get("count") == len(roster)


def succ_ok(reply: Mapping, ring: Mapping[int, int]) -> bool:
    """A successor answer matches the ring computed from the roster."""
    of = reply.get("of")
    return of in ring and reply.get("succ") == ring[of]
