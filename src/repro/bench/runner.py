"""Sweep execution for the benchmark harness.

:func:`run_case` executes one (algorithm, topology, n, seed) cell;
:func:`sweep` executes a full matrix, optionally fanned out over worker
processes.  Runs in the harness disable the per-message legality check by
default — the model conformance of every shipped algorithm is established
by the test suite (including the strict ball-containment observer), so the
harness pays for it only in experiment F4, which is *about* the invariant.
For the same reason the harness runs on the engine's fast store by
default (the set store when numpy is missing): the differential suite
holds it bit-identical to the reference store, and the experiments exist
to measure protocols, not to re-prove the engine.

Parallel sweeps are deterministic: every cell's randomness derives from
the cell's own seed (see :func:`sweep_seeds` for deriving a seed list from
one master seed via ``sim.rng``), each worker rebuilds its input graph
from that seed, and results return in case order — so ``workers=8`` and
``workers=1`` produce identical result lists.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
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
    jitter: int = 0,
    delivery: Optional[Union[str, DeliveryModel]] = None,
    observers: Iterable[Observer] = (),
    enforce_legality: bool = False,
    backend: Optional[str] = None,
    max_rounds: Optional[int] = None,
    graph: Optional[KnowledgeGraph] = None,
) -> RunResult:
    """Execute one case and return its result.

    The ``delivery`` keyword overrides ``case.delivery`` when given;
    ``jitter`` remains the legacy alias and is mutually exclusive with
    both (enforced by the engine).  ``backend`` pins the engine backend;
    by default :func:`repro.discover` picks the fast store.
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
        jitter=jitter,
        delivery=delivery,
        observers=observers,
        enforce_legality=enforce_legality,
        backend=backend,
        max_rounds=max_rounds,
        **dict(case.params),
    )


def _run_sweep_case(payload: Tuple[Case, bool, Optional[str]]) -> RunResult:
    """Module-level worker body (must be picklable for spawn workers)."""
    case, enforce_legality, backend = payload
    return run_case(case, enforce_legality=enforce_legality, backend=backend)


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
    workers: Optional[int] = None,
    enforce_legality: bool = False,
    backend: Optional[str] = None,
    delivery: Optional[Union[str, DeliveryModel]] = None,
    retries: int = 0,
    cell_timeout: Optional[float] = None,
    journal: Optional[Any] = None,
    resume: bool = False,
    progress: Optional[Callable[[Any], None]] = None,
    on_failure: str = "raise",
    _test_fault_hook: Optional[Callable[[Case, int], None]] = None,
) -> List[RunResult]:
    """Run a full (algorithm × size × seed) matrix on one topology.

    ``size_caps`` bounds the n at which an expensive algorithm still runs
    (e.g. classic swamping's pointer complexity is cubic; running it past
    n ≈ 512 buys no insight for minutes of wall clock).  Capped cells are
    simply absent from the result list; tables render them as ``-``.

    ``workers`` > 1 distributes the cells over a process pool.  Each
    worker rebuilds its cell's graph deterministically from the cell seed,
    and the result list keeps case order, so the output is identical to a
    serial sweep.

    ``delivery`` applies one delivery-model spec to every cell (each run
    binds its own per-run state, so sharing the spec is safe — including
    across worker processes, where it travels by pickle inside the case).

    The remaining keywords select the crash-safe execution layer
    (:class:`repro.bench.sweeprun.SweepRunner`): ``retries`` re-attempts a
    failing cell with bounded seed-deterministic backoff, ``cell_timeout``
    bounds one cell's wall clock, ``journal``/``resume`` persist completed
    cells to an append-only JSONL log and skip them on restart, and
    ``progress`` receives a :class:`~repro.bench.sweeprun.SweepProgress`
    event per finished cell.  ``on_failure`` decides what a cell that
    still fails after its retries does to the sweep: ``"raise"`` (the
    default) raises :class:`~repro.bench.sweeprun.SweepError` *after*
    every other cell has run (and been journaled), ``"skip"`` leaves the
    failed cells out of the result list.  With none of these engaged the
    sweep runs on the plain in-process paths below, byte-for-byte as it
    always has.
    """
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

    robust = (
        retries
        or cell_timeout is not None
        or journal is not None
        or resume
        or progress is not None
        or on_failure != "raise"
        or _test_fault_hook is not None
    )
    if robust:
        from .sweeprun import SweepError, SweepRunner

        runner = SweepRunner(
            workers=workers,
            retries=retries,
            cell_timeout=cell_timeout,
            journal=journal,
            resume=resume,
            progress=progress,
            enforce_legality=enforce_legality,
            backend=backend,
            fault_hook=_test_fault_hook,
        )
        report = runner.run(cases)
        if report.failures and on_failure == "raise":
            raise SweepError(report.failures)
        return report.results

    if workers is not None and workers > 1 and len(cases) > 1:
        payloads = [(case, enforce_legality, backend) for case in cases]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_sweep_case, payloads))

    results: List[RunResult] = []
    graph_cache: Dict[Tuple[int, int], KnowledgeGraph] = {}
    for case in cases:
        key = (case.n, case.seed)
        graph = graph_cache.get(key)
        if graph is None:
            graph = build_graph(case)
            graph_cache[key] = graph
        results.append(
            run_case(
                case,
                graph=graph,
                enforce_legality=enforce_legality,
                backend=backend,
            )
        )
    return results


def index_results(
    results: Iterable[RunResult],
) -> Dict[Tuple[str, int], List[RunResult]]:
    """Index results by (algorithm, n) for table construction."""
    indexed: Dict[Tuple[str, int], List[RunResult]] = {}
    for result in results:
        indexed.setdefault((result.algorithm, result.n), []).append(result)
    return indexed
