"""Synchronous message-passing simulation substrate.

The public surface of the simulator:

* :class:`SynchronousEngine` — the round executor (model enforcement,
  metrics, goal detection).
* :class:`ProtocolNode` — base class for protocol implementations.
* :class:`Message` — the unit of communication.
* :class:`RunResult` / :class:`RoundStats` — complexity accounting.
* :class:`FaultPlan` / :func:`crash_fraction_plan` — fault injection.
* :class:`DeliveryModel` and friends — pluggable delivery semantics
  (lockstep, bounded jitter, per-link latency, adversarial scheduling,
  partition windows).
* :class:`Observer` and friends — read-only run inspection.
* :func:`derive_rng` / :func:`derive_seed` — deterministic randomness.
"""

from .churn import JoinPlan, late_join_workload
from .engine import BACKENDS, GOALS, SynchronousEngine, default_max_rounds
from .errors import (
    EngineStateError,
    ProtocolViolation,
    SimulationError,
    UnknownNodeError,
)
from .faults import FaultInjector, FaultPlan, crash_fraction_plan
from .messages import MESSAGE_HEADER_WORDS, Message, message_bits
from .metrics import MetricsCollector, RoundStats, RunResult
from .node import ProtocolNode
from .observers import (
    KnowledgeSizeObserver,
    LoadObserver,
    Observer,
    RoundLogObserver,
)
from .rng import derive_rng, derive_seed
from .trace import TraceEvent, TraceObserver, read_jsonl
from .transport import (
    DELIVERY_MODELS,
    AdversarialScheduler,
    BoundedJitter,
    DeliveryModel,
    Lockstep,
    PartitionWindow,
    PerLinkLatency,
    parse_delivery,
)

__all__ = [
    "BACKENDS",
    "DELIVERY_MODELS",
    "GOALS",
    "MESSAGE_HEADER_WORDS",
    "AdversarialScheduler",
    "BoundedJitter",
    "DeliveryModel",
    "EngineStateError",
    "FaultInjector",
    "FaultPlan",
    "JoinPlan",
    "KnowledgeSizeObserver",
    "LoadObserver",
    "Lockstep",
    "Message",
    "MetricsCollector",
    "Observer",
    "PartitionWindow",
    "PerLinkLatency",
    "ProtocolNode",
    "ProtocolViolation",
    "RoundLogObserver",
    "RoundStats",
    "RunResult",
    "SimulationError",
    "SynchronousEngine",
    "TraceEvent",
    "TraceObserver",
    "UnknownNodeError",
    "crash_fraction_plan",
    "default_max_rounds",
    "derive_rng",
    "derive_seed",
    "late_join_workload",
    "message_bits",
    "parse_delivery",
    "read_jsonl",
]
