"""Sweep execution for the benchmark harness.

:func:`run_case` executes one (algorithm, topology, n, seed) cell;
:func:`sweep` builds a full matrix and runs it through a
:class:`~repro.bench.sweeprun.SweepRunner`, the one object that carries
execution settings (workers, retries, timeouts, journal, legality,
store).  Runs in the harness disable the per-message legality check by
default — the model conformance of every shipped algorithm is established
by the test suite (including the strict ball-containment observer), so the
harness pays for it only in experiment F4, which is *about* the invariant.
For the same reason the harness runs on the engine's fast store by
default: the differential suite
holds it bit-identical to the reference store, and the experiments exist
to measure protocols, not to re-prove the engine.

Parallel sweeps are deterministic: every cell's randomness derives from
the cell's own seed (see :func:`sweep_seeds` for deriving a seed list from
one master seed via ``sim.rng``), each cell rebuilds its input graph
from that seed, and results return in case order — so ``workers=8`` and
``workers=1`` produce identical result lists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..graphs.generators import make_topology
from ..graphs.knowledge import KnowledgeGraph
from ..sim.faults import FaultPlan
from ..sim.metrics import RunResult
from ..sim.observers import Observer
from ..sim.rng import derive_seed
from ..sim.transport import DeliveryModel

if TYPE_CHECKING:
    from .sweeprun import SweepRunner


@dataclass(frozen=True)
class Case:
    """One cell of an experiment matrix.

    ``delivery`` is a delivery-model spec (string like ``"adversarial:2"``
    or an unbound :class:`~repro.sim.transport.DeliveryModel`); ``None``
    means lockstep.  Specs are picklable, so delivery-model cases fan out
    over sweep workers like any other.
    """

    algorithm: str
    topology: str
    n: int
    seed: int
    goal: str = "strong"
    params: Mapping[str, Any] = field(default_factory=dict)
    topology_params: Mapping[str, Any] = field(default_factory=dict)
    delivery: Optional[Union[str, DeliveryModel]] = None
    label: Optional[str] = None  # display name when params vary

    @property
    def display(self) -> str:
        return self.label or self.algorithm


def build_graph(case: Case) -> KnowledgeGraph:
    """The deterministic input graph of a case (seeded by the case seed)."""
    return make_topology(
        case.topology, case.n, seed=case.seed, **dict(case.topology_params)
    )


def case_key(case: Case) -> str:
    """Canonical identity string for one cell.

    Sweep journals key their records on this, so it must be stable across
    processes, platforms, and library versions: a plain JSON object with
    sorted keys, delivery models flattened to their spec strings, and
    non-JSON parameter values rendered via ``repr``.
    """
    delivery = case.delivery
    if delivery is not None and not isinstance(delivery, str):
        delivery = delivery.describe()
    payload = {
        "algorithm": case.algorithm,
        "topology": case.topology,
        "n": case.n,
        "seed": case.seed,
        "goal": case.goal,
        "params": dict(case.params),
        "topology_params": dict(case.topology_params),
        "delivery": delivery,
        "label": case.label,
    }
    return json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))


def sweep_seeds(master_seed: int, count: int) -> List[int]:
    """Derive *count* independent 32-bit case seeds from one master seed.

    Uses the repository's stable seed derivation (`sim.rng.derive_seed`),
    so the same master seed yields the same sweep on any machine, any
    worker count, any process launch method.
    """
    return [
        derive_seed(master_seed, "sweep-case", index) & 0xFFFFFFFF
        for index in range(count)
    ]


def run_case(
    case: Case,
    *,
    fault_plan: Optional[FaultPlan] = None,
    delivery: Optional[Union[str, DeliveryModel]] = None,
    observers: Iterable[Observer] = (),
    enforce_legality: bool = False,
    backend: Optional[str] = None,
    max_rounds: Optional[int] = None,
    graph: Optional[KnowledgeGraph] = None,
) -> RunResult:
    """Execute one case and return its result.

    The ``delivery`` keyword overrides ``case.delivery`` when given.
    ``backend`` pins the engine backend; by default
    :func:`repro.discover` picks the fast store.
    """
    from .. import discover  # local import: repro re-exports this module

    if graph is None:
        graph = build_graph(case)
    if delivery is None:
        delivery = case.delivery
    return discover(
        graph,
        algorithm=case.algorithm,
        seed=case.seed,
        goal=case.goal,
        fault_plan=fault_plan,
        delivery=delivery,
        observers=observers,
        enforce_legality=enforce_legality,
        backend=backend,
        max_rounds=max_rounds,
        **dict(case.params),
    )


def build_cases(
    algorithms: Sequence[str],
    topology: str,
    sizes: Sequence[int],
    seeds: Sequence[int],
    *,
    goal: str = "strong",
    params_by_algorithm: Optional[Mapping[str, Mapping[str, Any]]] = None,
    topology_params: Optional[Mapping[str, Any]] = None,
    size_caps: Optional[Mapping[str, int]] = None,
    delivery: Optional[Union[str, DeliveryModel]] = None,
) -> List[Case]:
    """The (algorithm × size × seed) case matrix of a sweep, in run order.

    One graph seed per (size, seed) cell, shared by all algorithms so
    that every algorithm sees the *same* inputs.  Cells size-capped for
    an algorithm are absent.
    """
    params_by_algorithm = params_by_algorithm or {}
    cases: List[Case] = []
    for n in sizes:
        for seed in seeds:
            for algorithm in algorithms:
                cap = (size_caps or {}).get(algorithm)
                if cap is not None and n > cap:
                    continue
                cases.append(
                    Case(
                        algorithm=algorithm,
                        topology=topology,
                        n=n,
                        seed=seed,
                        goal=goal,
                        params=params_by_algorithm.get(algorithm, {}),
                        topology_params=topology_params or {},
                        delivery=delivery,
                    )
                )
    return cases


def sweep(
    algorithms: Sequence[str],
    topology: str,
    sizes: Sequence[int],
    seeds: Sequence[int],
    *,
    goal: str = "strong",
    params_by_algorithm: Optional[Mapping[str, Mapping[str, Any]]] = None,
    topology_params: Optional[Mapping[str, Any]] = None,
    size_caps: Optional[Mapping[str, int]] = None,
    delivery: Optional[Union[str, DeliveryModel]] = None,
    runner: Optional[SweepRunner] = None,
) -> List[RunResult]:
    """Run a full (algorithm × size × seed) matrix on one topology.

    ``size_caps`` bounds the n at which an expensive algorithm still runs
    (e.g. classic swamping's pointer complexity is cubic; running it past
    n ≈ 512 buys no insight for minutes of wall clock).  Capped cells are
    simply absent from the result list; tables render them as ``-``.

    ``delivery`` applies one delivery-model spec to every cell (each run
    binds its own per-run state, so sharing the spec is safe — including
    across worker processes, where it travels by pickle inside the case).

    ``runner`` executes the cells; ``None`` means a default
    :class:`~repro.bench.sweeprun.SweepRunner` (serial, no retries, no
    journal, legality off, the default store).  Results come back in case
    order.  If any cell still fails after the runner's retries, this
    raises :class:`~repro.bench.sweeprun.SweepError` naming the failed
    cells *after* every other cell has run (and been journaled).  A
    caller that wants the partial results calls
    :meth:`SweepRunner.run` on :func:`build_cases` itself.
    """
    from .sweeprun import SweepError, SweepRunner  # sweeprun imports this module

    cases = build_cases(
        algorithms,
        topology,
        sizes,
        seeds,
        goal=goal,
        params_by_algorithm=params_by_algorithm,
        topology_params=topology_params,
        size_caps=size_caps,
        delivery=delivery,
    )
    report = (runner or SweepRunner()).run(cases)
    if report.failures:
        raise SweepError(report.failures)
    return report.results


def index_results(
    results: Iterable[RunResult],
) -> Dict[Tuple[str, int], List[RunResult]]:
    """Index results by (algorithm, n) for table construction."""
    indexed: Dict[Tuple[str, int], List[RunResult]] = {}
    for result in results:
        indexed.setdefault((result.algorithm, result.n), []).append(result)
    return indexed
