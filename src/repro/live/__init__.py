"""Live asyncio host for the protocol core.

The refactor that extracted a pure per-round transition out of
:class:`~repro.sim.node.ProtocolNode` pays off here: the exact same
protocol objects the synchronous simulator drives can be hosted as
concurrent asyncio tasks speaking a length-framed JSON wire protocol
over TCP loopback.  The simulator remains the reference host; this
package is the second one, and the two are held bit-identical — a live
cluster run reduces its final state to the same
:func:`~repro.graphs.knowledge.digest_knowledge` a seeded
:class:`~repro.sim.engine.SynchronousEngine` run produces.

Modules:

* :mod:`repro.live.wire` — frame codec (4-byte length prefix + JSON)
  and the :class:`~repro.sim.messages.Message` wire mapping.
* :mod:`repro.live.node` — one node: TCP server, peer connections,
  marker-paced round loop, failure detector, query service.
* :mod:`repro.live.cluster` — spin up n nodes on loopback, run
  discovery to closure, verify the digest against the simulator;
  :class:`ClusterSpec` also schedules crashes (``crash_rounds``), held
  to the simulator's :class:`~repro.sim.faults.FaultInjector`
  prediction under the same schedule.
* :mod:`repro.live.loadgen` — concurrent census/overlay lookups
  against a serving cluster.
"""

from .cluster import ClusterReport, ClusterSpec, LiveCluster, reference_digest, run_cluster
from .loadgen import LoadgenReport, run_loadgen
from .node import LiveNodeRuntime, default_marker_timeout
from .wire import encode_frame, message_to_wire, read_frame, wire_to_message

__all__ = [
    "ClusterReport",
    "ClusterSpec",
    "LiveCluster",
    "LiveNodeRuntime",
    "LoadgenReport",
    "default_marker_timeout",
    "encode_frame",
    "message_to_wire",
    "read_frame",
    "reference_digest",
    "run_cluster",
    "run_loadgen",
    "wire_to_message",
]
