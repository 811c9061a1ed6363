"""Seeded schedule fuzzing with shrinking.

:func:`generate_script` derives one adversarial
:class:`~repro.oracle.script.ScheduleScript` per ``(master_seed, index)``
pair — deterministically, so a fuzz run is exactly reproducible from its
seed.  Coverage is cycled, not sampled: consecutive indices walk the
registered algorithms, and each full algorithm cycle advances the
delivery-model family, so ``cases >= len(algorithms) * 3`` provably
exercises every algorithm under at least three delivery models.  The
remaining schedule ingredients (topology, size, loss, crashes, joins)
are drawn randomly per script.

:func:`check_script` runs one script under the strict
:class:`~repro.oracle.invariants.InvariantOracle`, then (optionally)
through the differential pairings.  :func:`shrink` greedily simplifies a
failing script — drop the delivery model, the loss, the crash and join
schedules, the params; shrink n — re-checking after each candidate, so
the reported reproduction is minimal under its simplification moves.

:func:`fuzz` is the budgeted loop behind ``repro fuzz``: by case count
and/or wall clock, appending one record per case to a JSONL report via
the crash-safe journal writer of :mod:`repro.bench.store`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import monotonic
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..algorithms.registry import algorithm_names, get_algorithm
from ..bench.store import append_journal
from ..sim.engine import SynchronousEngine
from ..sim.metrics import RunResult
from ..sim.observers import Observer
from ..sim.rng import derive_rng
from ..sim.vector_kernel import vector_available
from .differential import diff_fast_vs_legacy, diff_reduction, diff_vector_vs_fast
from .invariants import InvariantOracle, OracleViolation
from .script import ScheduleScript

#: Schema version of fuzz report journals.
FUZZ_SCHEMA = 1

#: Delivery-model families cycled by the generator, lockstep included.
DELIVERY_FAMILIES: Tuple[str, ...] = (
    "lockstep",
    "jitter",
    "adversarial",
    "perlink",
    "partition",
)

#: Topology families the generator draws from (all parameter-safe at
#: small n).
FUZZ_TOPOLOGIES: Tuple[str, ...] = (
    "kout",
    "path",
    "cycle",
    "tree",
    "star_in",
    "gnp",
)

#: Cap on the rounds one fuzz case may burn; incompletion under a hostile
#: schedule is not a violation, so there is no reason to run an
#: adversarially-stalled protocol to its full registered cap.
FUZZ_ROUND_CAP = 260

EngineHook = Callable[[SynchronousEngine], None]


# -- script generation ----------------------------------------------------------------


def generate_script(
    master_seed: int,
    index: int,
    *,
    algorithms: Optional[Sequence[str]] = None,
    deliveries: Sequence[str] = DELIVERY_FAMILIES,
    min_n: int = 4,
    max_n: int = 24,
) -> ScheduleScript:
    """Derive fuzz case *index* of the run seeded by *master_seed*."""
    rng = derive_rng(master_seed, "fuzz-script", index)
    names = tuple(algorithms) if algorithms else algorithm_names()
    algorithm = names[index % len(names)]
    family = deliveries[(index // len(names)) % len(deliveries)]

    n = rng.randint(min_n, max_n)
    topology = FUZZ_TOPOLOGIES[rng.randrange(len(FUZZ_TOPOLOGIES))]
    topology_params: Dict[str, Any] = {}
    if topology == "kout":
        topology_params["k"] = rng.randint(2, min(4, n - 1))
    elif topology == "gnp":
        topology_params["p"] = 0.25

    if family == "lockstep":
        delivery: Optional[str] = None
    elif family == "jitter":
        delivery = f"jitter:{rng.randint(1, 3)}"
    elif family == "adversarial":
        delivery = f"adversarial:{rng.randint(1, 3)}"
    elif family == "perlink":
        delivery = f"perlink:{rng.randint(1, 3)}"
    elif family == "partition":
        start = rng.randint(2, 6)
        delivery = f"partition:{start}-{start + rng.randint(0, 4)}"
    else:
        raise ValueError(f"unknown delivery family {family!r}")

    loss_rate = round(rng.uniform(0.05, 0.25), 3) if rng.random() < 0.35 else 0.0
    crash_rounds: Dict[int, int] = {}
    if rng.random() < 0.35:
        count = max(1, int(n * rng.uniform(0.05, 0.25)))
        for victim in rng.sample(range(n), count):
            crash_rounds[victim] = rng.randint(2, 8)
    join_rounds: Dict[int, int] = {}
    if rng.random() < 0.35:
        count = rng.randint(1, max(1, n // 4))
        for joiner in rng.sample(range(n), count):
            join_rounds[joiner] = rng.randint(2, 8)

    if crash_rounds:
        goal = "strong_alive"
    else:
        goal = "weak" if rng.random() < 0.25 else "strong"

    spec = get_algorithm(algorithm)
    params: Dict[str, Any] = {}
    hostile = bool(delivery or loss_rate or crash_rounds or join_rounds)
    if hostile:
        params = dict(spec.hostile_params)

    max_rounds = min(spec.round_cap(n), FUZZ_ROUND_CAP)
    return ScheduleScript(
        algorithm=algorithm,
        topology=topology,
        n=n,
        seed=rng.randrange(2**32),
        goal=goal,
        delivery=delivery,
        loss_rate=loss_rate,
        fault_seed=rng.randrange(2**16),
        crash_rounds=crash_rounds,
        join_rounds=join_rounds,
        params=params,
        topology_params=topology_params,
        max_rounds=max_rounds,
    )


# -- execution ------------------------------------------------------------------------


def run_script(
    script: ScheduleScript,
    *,
    fast_path: bool = True,
    enforce_legality: bool = True,
    strict: bool = True,
    observers: Sequence[Observer] = (),
    engine_hook: Optional[EngineHook] = None,
) -> Tuple[RunResult, InvariantOracle]:
    """Run one script under the invariant oracle.

    ``engine_hook`` receives the constructed engine before the run starts
    — the fuzzer self-tests use it to inject deliberate transport bugs
    and prove the oracle catches them.  With ``strict=True`` the first
    violation raises :class:`OracleViolation` out of the run.
    """
    oracle = InvariantOracle(script=script, strict=strict)
    engine = script.build_engine(
        fast_path=fast_path,
        enforce_legality=enforce_legality,
        observers=(oracle, *observers),
    )
    if engine_hook is not None:
        engine_hook(engine)
    result = engine.run(max_rounds=script.resolved_max_rounds())
    return result, oracle


def replay(script_or_json: Union[ScheduleScript, str, Dict[str, Any]]) -> RunResult:
    """Replay a violation's ``(config, seed, schedule)`` triple strictly.

    Accepts a script, its JSON text, or its dict form.  Raises the same
    :class:`OracleViolation` the original run did (same seed, same
    schedule, same round) or returns the clean result.
    """
    import json as _json

    if isinstance(script_or_json, str):
        script = ScheduleScript.from_dict(_json.loads(script_or_json))
    elif isinstance(script_or_json, ScheduleScript):
        script = script_or_json
    else:
        script = ScheduleScript.from_dict(script_or_json)
    result, _ = run_script(script, strict=True)
    return result


def check_script(
    script: ScheduleScript,
    *,
    differential: bool = True,
    reduction: bool = True,
    engine_hook: Optional[EngineHook] = None,
) -> Optional[Tuple[str, str]]:
    """Run every check one fuzz case gets; ``None`` means clean.

    On failure returns ``(kind, detail)`` where *kind* is ``invariant``
    (the oracle raised), ``divergence`` (fast path != legacy path),
    ``vector-divergence`` (vector backend != fast path; both differential
    checks are skipped when numpy is unavailable, since the fast and
    vector backends need it), or ``reduction-divergence`` (degenerate
    model != lockstep).
    """
    try:
        run_script(script, strict=True, engine_hook=engine_hook)
    except OracleViolation as violation:
        return ("invariant", str(violation))
    if differential and vector_available():
        report = diff_fast_vs_legacy(script)
        if not report.equal:
            return ("divergence", report.describe())
        report = diff_vector_vs_fast(script)
        if not report.equal:
            return ("vector-divergence", report.describe())
    if reduction:
        report = diff_reduction(script)
        if report is not None and not report.equal:
            return ("reduction-divergence", report.describe())
    return None


# -- shrinking ------------------------------------------------------------------------


def _filtered_nodes(
    schedule: Dict[int, int], n: int
) -> Dict[int, int]:
    """Drop schedule entries naming nodes outside a shrunken id space."""
    return {node: rnd for node, rnd in schedule.items() if node < n}


def _simplifications(script: ScheduleScript) -> Iterator[ScheduleScript]:
    """Candidate one-step simplifications, cheapest big wins first."""
    if script.delivery is not None:
        yield replace(script, delivery=None)
    if script.loss_rate:
        yield replace(script, loss_rate=0.0)
    if script.crash_rounds:
        yield replace(script, crash_rounds={}, goal="strong")
    if script.join_rounds:
        yield replace(script, join_rounds={})
    if script.params:
        yield replace(script, params={})
    if script.goal != "strong":
        yield replace(script, goal="strong")
    if script.topology != "path":
        yield replace(script, topology="path", topology_params={})
    # Per-entry removals, once wholesale clearing stopped reproducing.
    for node in sorted(script.crash_rounds):
        crashes = dict(script.crash_rounds)
        del crashes[node]
        yield replace(script, crash_rounds=crashes)
    for node in sorted(script.join_rounds):
        joins = dict(script.join_rounds)
        del joins[node]
        yield replace(script, join_rounds=joins)
    # Size reductions last: they perturb everything downstream.
    for smaller in (script.n // 2, script.n - 1):
        if 2 <= smaller < script.n:
            yield replace(
                script,
                n=smaller,
                crash_rounds=_filtered_nodes(dict(script.crash_rounds), smaller),
                join_rounds=_filtered_nodes(dict(script.join_rounds), smaller),
            )


def shrink(
    script: ScheduleScript,
    failing: Callable[[ScheduleScript], bool],
    *,
    max_attempts: int = 200,
) -> ScheduleScript:
    """Greedily minimize a failing script.

    ``failing`` must return True when a candidate still reproduces the
    failure.  Each accepted simplification restarts the pass, so the
    result is a fixpoint of :func:`_simplifications` (or the best script
    found within *max_attempts* candidate evaluations).
    """
    attempts = 0
    current = script
    progressed = True
    while progressed and attempts < max_attempts:
        progressed = False
        for candidate in _simplifications(current):
            if attempts >= max_attempts:
                break
            attempts += 1
            try:
                still_failing = failing(candidate)
            except Exception:
                # A candidate that fails to even build (e.g. a topology
                # rejecting the shrunken size) is not a simplification.
                continue
            if still_failing:
                current = candidate
                progressed = True
                break
    return current


# -- deliberate-bug hooks (fuzzer self-test) ------------------------------------------


def make_skip_delivery_hook(count: int = 1) -> EngineHook:
    """An engine hook that silently loses *count* due messages.

    Wraps the bound delivery model's ``pending`` to pop one due message
    (and its parallel delay entry) without charging any drop reason — a
    transport bug that breaks message conservation.  Used by the fuzzer
    self-tests to prove the oracle detects real divergences.
    """

    def hook(engine: SynchronousEngine) -> None:
        bound = engine.delivery
        original = bound.pending
        state = {"remaining": count}

        def pending(round_no: int):
            messages, delays = original(round_no)
            if messages and state["remaining"] > 0:
                state["remaining"] -= 1
                messages = list(messages)
                messages.pop()
                if delays is not None:
                    delays = list(delays)
                    delays.pop()
            return messages, delays

        bound.pending = pending  # type: ignore[method-assign]

    return hook


# -- the budgeted fuzz loop -----------------------------------------------------------


@dataclass(frozen=True)
class FuzzCase:
    """Outcome of one fuzz case."""

    index: int
    script: ScheduleScript
    status: str  # ok | invariant | divergence | vector-divergence | reduction-divergence
    detail: Optional[str] = None
    shrunk: Optional[ScheduleScript] = None


@dataclass(frozen=True)
class FuzzReport:
    """Summary of one fuzz run."""

    seed: int
    cases: Tuple[FuzzCase, ...]
    elapsed: float

    @property
    def failures(self) -> Tuple[FuzzCase, ...]:
        return tuple(case for case in self.cases if case.status != "ok")


def fuzz(
    cases: int = 50,
    *,
    seed: int = 0,
    algorithms: Optional[Sequence[str]] = None,
    deliveries: Sequence[str] = DELIVERY_FAMILIES,
    min_n: int = 4,
    max_n: int = 24,
    differential: bool = True,
    reduction: bool = True,
    shrink_failures: bool = True,
    max_shrink_attempts: int = 60,
    time_budget: Optional[float] = None,
    report_path: Optional[str] = None,
    progress: Optional[Callable[[FuzzCase], None]] = None,
    engine_hook: Optional[EngineHook] = None,
) -> FuzzReport:
    """Run the budgeted fuzz loop.

    Stops after *cases* scripts or once *time_budget* seconds have
    elapsed, whichever comes first.  When *report_path* is given, a
    manifest plus one record per case (and a final summary) are appended
    to a JSONL journal via :func:`repro.bench.store.append_journal`, so
    an interrupted fuzz run keeps every finished case on disk.

    ``engine_hook`` is forwarded to every oracle run (self-test use).
    """
    started = monotonic()
    if report_path:
        append_journal(
            report_path,
            {
                "type": "manifest",
                "schema": FUZZ_SCHEMA,
                "kind": "fuzz",
                "seed": seed,
                "cases": cases,
                "algorithms": list(algorithms) if algorithms else None,
                "deliveries": list(deliveries),
                "max_n": max_n,
            },
        )
    outcomes: List[FuzzCase] = []
    for index in range(cases):
        if time_budget is not None and monotonic() - started >= time_budget:
            break
        script = generate_script(
            seed,
            index,
            algorithms=algorithms,
            deliveries=deliveries,
            min_n=min_n,
            max_n=max_n,
        )
        failure = check_script(
            script,
            differential=differential,
            reduction=reduction,
            engine_hook=engine_hook,
        )
        if failure is None:
            outcome = FuzzCase(index=index, script=script, status="ok")
        else:
            kind, detail = failure
            shrunk = None
            if shrink_failures:
                shrunk = shrink(
                    script,
                    lambda candidate: check_script(
                        candidate,
                        differential=differential,
                        reduction=reduction,
                        engine_hook=engine_hook,
                    )
                    is not None,
                    max_attempts=max_shrink_attempts,
                )
            outcome = FuzzCase(
                index=index,
                script=script,
                status=kind,
                detail=detail,
                shrunk=shrunk,
            )
        outcomes.append(outcome)
        if report_path:
            record: Dict[str, Any] = {
                "type": "case",
                "index": outcome.index,
                "status": outcome.status,
                "script": outcome.script.to_dict(),
            }
            if outcome.detail:
                record["detail"] = outcome.detail
            if outcome.shrunk is not None:
                record["shrunk"] = outcome.shrunk.to_dict()
            append_journal(report_path, record)
        if progress is not None:
            progress(outcome)
    elapsed = monotonic() - started
    report = FuzzReport(seed=seed, cases=tuple(outcomes), elapsed=elapsed)
    if report_path:
        append_journal(
            report_path,
            {
                "type": "summary",
                "cases_run": len(report.cases),
                "failures": len(report.failures),
                "elapsed": round(elapsed, 3),
            },
        )
    return report
