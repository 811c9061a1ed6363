"""T9 — load realism: skewed demand, flash crowds, regional failures,
dynamic graphs.

Every other experiment drives the algorithms with uniform synthetic
input.  T9 replays the seeded traces of :mod:`repro.workloads` — the
demand shapes real discovery services face — and measures *service*
quality (was a lookup answerable when it arrived?) next to the usual
protocol costs:

* **T9a (Zipf skew)** — lookup popularity from uniform (``alpha=0``) to
  heavily skewed (``alpha=1.4``; arXiv 1403.3017 motivates the shape).
  Demand is read-only, so protocol costs cannot depend on it; what
  changes is how much of the demand each algorithm can answer mid-run,
  and whether hot targets are learned earlier than cold ones.
* **T9b (flash crowd)** — a step burst of hot-key demand mid-run.  The
  question the docs ask of ``det_optimal``: its message floor survives
  trivially (messages are demand-independent), but its big-bang delivery
  (aggregate first, broadcast last) means burst demand waits for the
  final broadcast, where gossip's incremental spread answers early.
* **T9c (correlated regional failures)** — an entire topology region
  crashes together (trace membership rule = the ``clustered`` topology's
  ``node % clusters``), against a *random* crash of the same size as the
  control.  Random crashes are the T3 regime every resilient variant
  heals from; correlated ones can wedge the cluster-merge structure —
  the completion-rate gap is the finding.
* **T9d (dynamic graph)** — contact edges churn mid-run (arXiv
  1202.2092's regime), injected through the engine's out-of-band
  knowledge seam; compared against the static graph on rounds and
  messages.

T9's cells are trace replays, not sweep cells, so of a
:class:`~repro.bench.sweeprun.SweepRunner` it reads only ``journal`` and
``resume``.  With a journal, every cell is journaled under its canonical
:func:`~repro.bench.runner.case_key` (one journal per stage, forked with
:meth:`~repro.bench.sweeprun.SweepRunner.for_stage` as F3 does),
``resume`` restores finished cells without re-running, and an existing
stage journal without ``resume`` is refused as ``SweepRunner`` refuses
one.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ...sim.faults import crash_fraction_plan
from ...workloads import make_workload, run_trace_workload
from ..runner import Case, case_key, run_case
from ..seeds import Scale
from ..store import JOURNAL_SCHEMA, append_journal, load_journal
from ..sweeprun import SweepRunner, check_matrix, journal_is_fresh, matrix_digest
from ..tables import ExperimentReport, Table

EXPERIMENT_ID = "T9"
TITLE = "Load realism: skewed demand, flash crowds, regional failures"

ALGORITHMS = ("sublog", "namedropper", "det_optimal", "chord_discover")
ZIPF_ALPHAS = (0.0, 1.1, 1.4)
SPIKE_FACTORS = (1.0, 8.0, 32.0)
FAILURE_ROUND = 6
LOOKUP_ROUNDS = 12


class _StageCells:
    """Journal-backed cell cache for one T9 stage.

    Cells are keyed by their canonical :func:`case_key`; with a journal
    configured each computed payload is appended durably
    (:func:`repro.bench.store.append_journal`) and a resume run restores
    it through :func:`repro.bench.store.load_journal` instead of
    re-simulating.  An existing journal without ``resume`` raises
    :class:`FileExistsError`.  The manifest records the stage's case
    matrix (``focus_n`` and the seeds, as :func:`matrix_digest`), and a
    resume at another scale raises the ``ValueError`` a sweep's runner
    raises.
    """

    def __init__(self, runner: Optional[SweepRunner], stage: str, scale: Scale) -> None:
        self.path: Optional[Path] = None
        self._cached: Dict[str, Dict[str, Any]] = {}
        if runner is None or runner.journal is None:
            return
        self.path = Path(runner.for_stage(stage).journal)
        digest = matrix_digest(
            [f"focus_n={scale.focus_n}", *(f"seed={seed}" for seed in scale.seeds)]
        )
        if journal_is_fresh(self.path, runner.resume):
            append_journal(
                self.path,
                {
                    "type": "manifest",
                    "schema": JOURNAL_SCHEMA,
                    "experiment": EXPERIMENT_ID,
                    "stage": stage,
                    "matrix": {"digest": digest},
                },
            )
        else:
            manifest, results, _failures = load_journal(self.path)
            check_matrix(self.path, manifest, digest)
            self._cached = {key: dict(record["payload"]) for key, record in results.items()}

    def cell(
        self, case: Case, compute: Callable[[], Dict[str, Any]]
    ) -> Dict[str, Any]:
        key = case_key(case)
        cached = self._cached.get(key)
        if cached is not None:
            return cached
        payload = compute()
        if self.path is not None:
            append_journal(
                self.path, {"type": "result", "key": key, "payload": payload}
            )
        return payload


def _served_percent(lookups: Dict[str, Any]) -> float:
    requests = lookups["requests"]
    return 100.0 * lookups["served_at_arrival"] / requests if requests else 100.0


def _hot_decile(lookups: Dict[str, Any]) -> Dict[str, Any]:
    by_decile = lookups.get("by_decile", {})
    if not by_decile:
        return {"served_at_arrival": 1.0, "mean_delay": 0.0}
    return by_decile[min(by_decile)]


def _zipf_stage(
    report: ExperimentReport, scale: Scale, runner: Optional[SweepRunner]
) -> Dict[str, Any]:
    cells = _StageCells(runner, "t9a", scale)
    n = scale.focus_n
    table = Table(
        f"T9a: Zipf-skewed lookup demand (kout, n={n}, {LOOKUP_ROUNDS}-round window)",
        [
            "alpha",
            "algorithm",
            "served@arrival",
            "mean delay",
            "hot-decile served",
            "rounds",
        ],
        caption=(
            "served@arrival = lookups answerable the round they arrive; "
            "delay in rounds; hot decile = hottest 10% of targets"
        ),
    )
    summary: Dict[str, Dict[str, float]] = {}
    for alpha in ZIPF_ALPHAS:
        for algorithm in ALGORITHMS:
            served, delays, hot_served, rounds = [], [], [], []
            for seed in scale.seeds:
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params={"workload": "zipf", "alpha": alpha},
                    label=f"t9a/{algorithm}/a{alpha}",
                )

                def compute(seed: int = seed, alpha: float = alpha) -> Dict[str, Any]:
                    trace = make_workload(
                        "zipf", n, seed=seed, alpha=alpha, rounds=LOOKUP_ROUNDS
                    )
                    replay = run_trace_workload(
                        trace,
                        algorithm,
                        seed=seed,
                        enforce_legality=False,
                    )
                    return {
                        "served": _served_percent(replay.lookups),
                        "mean_delay": replay.lookups["mean_delay"],
                        "hot_served": 100.0
                        * _hot_decile(replay.lookups)["served_at_arrival"],
                        "rounds": replay.result.rounds,
                    }

                payload = cells.cell(case, compute)
                served.append(payload["served"])
                delays.append(payload["mean_delay"])
                hot_served.append(payload["hot_served"])
                rounds.append(payload["rounds"])
            row = {
                "served": statistics.median(served),
                "mean_delay": statistics.median(delays),
                "hot_served": statistics.median(hot_served),
                "rounds": statistics.median(rounds),
            }
            summary[f"{algorithm}@a{alpha}"] = row
            table.add_row(
                f"{alpha:.1f}",
                algorithm,
                f"{row['served']:.0f}%",
                f"{row['mean_delay']:.1f}",
                f"{row['hot_served']:.0f}%",
                f"{row['rounds']:.0f}",
            )
    report.add(table)
    return summary


def _flash_stage(
    report: ExperimentReport, scale: Scale, runner: Optional[SweepRunner]
) -> Dict[str, Any]:
    cells = _StageCells(runner, "t9b", scale)
    n = scale.focus_n
    table = Table(
        f"T9b: flash crowd (kout, n={n}, burst at round 8)",
        [
            "spike",
            "algorithm",
            "hot served@arrival",
            "hot mean delay",
            "messages",
            "rounds",
        ],
        caption=(
            "hot columns follow the burst's hot-key demand; messages are "
            "demand-independent, so the det_optimal message floor survives "
            "any spike — the burst only hurts algorithms still spreading "
            "knowledge when it lands"
        ),
    )
    summary: Dict[str, Dict[str, float]] = {}
    for factor in SPIKE_FACTORS:
        for algorithm in ALGORITHMS:
            hot_served, hot_delay, messages, rounds = [], [], [], []
            for seed in scale.seeds:
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params={"workload": "flash_crowd", "spike_factor": factor},
                    label=f"t9b/{algorithm}/x{factor:.0f}",
                )

                def compute(seed: int = seed, factor: float = factor) -> Dict[str, Any]:
                    trace = make_workload(
                        "flash_crowd",
                        n,
                        seed=seed,
                        spike_factor=factor,
                        spike_round=8,
                        rounds=18,
                    )
                    replay = run_trace_workload(
                        trace,
                        algorithm,
                        seed=seed,
                        enforce_legality=False,
                    )
                    hot = _hot_decile(replay.lookups)
                    return {
                        "hot_served": 100.0 * hot["served_at_arrival"],
                        "hot_delay": hot["mean_delay"],
                        "messages": replay.result.messages,
                        "rounds": replay.result.rounds,
                    }

                payload = cells.cell(case, compute)
                hot_served.append(payload["hot_served"])
                hot_delay.append(payload["hot_delay"])
                messages.append(payload["messages"])
                rounds.append(payload["rounds"])
            row = {
                "hot_served": statistics.median(hot_served),
                "hot_delay": statistics.median(hot_delay),
                "messages": statistics.median(messages),
                "rounds": statistics.median(rounds),
            }
            summary[f"{algorithm}@x{factor:.0f}"] = row
            table.add_row(
                f"{factor:.0f}x",
                algorithm,
                f"{row['hot_served']:.0f}%",
                f"{row['hot_delay']:.1f}",
                f"{row['messages']:,.0f}",
                f"{row['rounds']:.0f}",
            )
    report.add(table)
    return summary


def _failures_stage(
    report: ExperimentReport, scale: Scale, runner: Optional[SweepRunner]
) -> Dict[str, Any]:
    from ...algorithms import ALGORITHMS as REGISTRY
    from ...workloads import fault_plan_from_trace
    from ..runner import build_graph

    cells = _StageCells(runner, "t9c", scale)
    n = scale.focus_n
    clusters = 8
    table = Table(
        f"T9c: correlated regional failures (clustered, n={n}, "
        f"2/8 regions 50% down at round {FAILURE_ROUND})",
        [
            "algorithm",
            "correlated done",
            "random done",
            "corr rounds",
            "rand rounds",
        ],
        caption=(
            "goal strong_alive; 'random done' crashes the *same number* of "
            "machines chosen uniformly (the T3 regime) on the same graph — "
            "the completion-rate gap is the cost of correlation"
        ),
    )
    summary: Dict[str, Dict[str, Any]] = {}

    def _rate(flags: List[bool]) -> str:
        return f"{sum(flags)}/{len(flags)}"

    def _rounds(rounds: List[float]) -> str:
        completed = [value for value in rounds if value is not None]
        return f"{statistics.median(completed):.0f}" if completed else "-"

    for algorithm in ALGORITHMS:
        hostile = dict(REGISTRY[algorithm].hostile_params)
        corr_done: List[bool] = []
        rand_done: List[bool] = []
        corr_rounds: List[Optional[float]] = []
        rand_rounds: List[Optional[float]] = []
        for seed in scale.seeds:
            for variant in ("correlated", "random"):
                case = Case(
                    algorithm=algorithm,
                    topology="clustered",
                    n=n,
                    seed=seed,
                    goal="strong_alive",
                    params={"workload": "correlated_failures", "variant": variant},
                    topology_params={"clusters": clusters},
                    label=f"t9c/{algorithm}/{variant}",
                )

                def compute(seed: int = seed, variant: str = variant) -> Dict[str, Any]:
                    trace = make_workload(
                        "correlated_failures",
                        n,
                        seed=seed,
                        clusters=clusters,
                        victim_clusters=2,
                        fail_fraction=0.5,
                        failure_round=FAILURE_ROUND,
                    )
                    if variant == "correlated":
                        replay = run_trace_workload(
                            trace,
                            algorithm,
                            seed=seed,
                            topology="clustered",
                            topology_params={"clusters": clusters},
                            goal="strong_alive",
                            enforce_legality=False,
                            **hostile,
                        )
                        result = replay.result
                    else:
                        graph = build_graph(
                            Case(
                                algorithm=algorithm,
                                topology="clustered",
                                n=n,
                                seed=seed,
                                topology_params={"clusters": clusters},
                            )
                        )
                        victims = len(
                            fault_plan_from_trace(trace, graph.node_ids).crash_rounds
                        )
                        plan = crash_fraction_plan(
                            graph.node_ids, victims / n, FAILURE_ROUND, seed
                        )
                        result = run_case(
                            Case(
                                algorithm=algorithm,
                                topology="clustered",
                                n=n,
                                seed=seed,
                                goal="strong_alive",
                                params=hostile,
                                topology_params={"clusters": clusters},
                            ),
                            fault_plan=plan,
                        )
                    return {
                        "completed": result.completed,
                        "rounds": result.rounds if result.completed else None,
                    }

                payload = cells.cell(case, compute)
                if variant == "correlated":
                    corr_done.append(payload["completed"])
                    corr_rounds.append(payload["rounds"])
                else:
                    rand_done.append(payload["completed"])
                    rand_rounds.append(payload["rounds"])
        summary[algorithm] = {
            "correlated_rate": sum(corr_done) / len(corr_done),
            "random_rate": sum(rand_done) / len(rand_done),
        }
        table.add_row(
            algorithm,
            _rate(corr_done),
            _rate(rand_done),
            _rounds(corr_rounds),
            _rounds(rand_rounds),
        )
    report.add(table)
    return summary


def _dynamic_stage(
    report: ExperimentReport, scale: Scale, runner: Optional[SweepRunner]
) -> Dict[str, Any]:
    cells = _StageCells(runner, "t9d", scale)
    n = scale.focus_n
    table = Table(
        f"T9d: dynamic contact-edge churn (kout, n={n}, 8 edges/round "
        "for 6 rounds)",
        ["algorithm", "static rounds", "churn rounds", "msg delta"],
        caption=(
            "fresh contact edges appear mid-run via the engine's "
            "out-of-band injection seam (arXiv 1202.2092's dynamic-"
            "network regime); free long-range edges can only help"
        ),
    )
    summary: Dict[str, Dict[str, float]] = {}
    for algorithm in ALGORITHMS:
        static_rounds, churn_rounds_seen, deltas = [], [], []
        for seed in scale.seeds:
            for variant in ("static", "churn"):
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params={"workload": "dynamic_graph", "variant": variant},
                    label=f"t9d/{algorithm}/{variant}",
                )

                def compute(seed: int = seed, variant: str = variant) -> Dict[str, Any]:
                    if variant == "static":
                        result = run_case(
                            Case(
                                algorithm=algorithm, topology="kout", n=n, seed=seed
                            )
                        )
                        return {"rounds": result.rounds, "messages": result.messages}
                    trace = make_workload(
                        "dynamic_graph",
                        n,
                        seed=seed,
                        edges_per_round=8,
                        churn_rounds=6,
                        start_round=2,
                    )
                    replay = run_trace_workload(
                        trace,
                        algorithm,
                        seed=seed,
                        enforce_legality=False,
                    )
                    return {
                        "rounds": replay.result.rounds,
                        "messages": replay.result.messages,
                    }

                payload = cells.cell(case, compute)
                if variant == "static":
                    static = payload
                    static_rounds.append(payload["rounds"])
                else:
                    churn_rounds_seen.append(payload["rounds"])
                    deltas.append(
                        100.0
                        * (payload["messages"] - static["messages"])
                        / static["messages"]
                    )
        row = {
            "static_rounds": statistics.median(static_rounds),
            "churn_rounds": statistics.median(churn_rounds_seen),
            "msg_delta": statistics.median(deltas),
        }
        summary[algorithm] = row
        table.add_row(
            algorithm,
            f"{row['static_rounds']:.0f}",
            f"{row['churn_rounds']:.0f}",
            f"{row['msg_delta']:+.0f}%",
        )
    report.add(table)
    return summary


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    summary: Dict[str, Any] = {}
    summary["zipf"] = _zipf_stage(report, scale, runner)
    summary["flash"] = _flash_stage(report, scale, runner)
    summary["failures"] = _failures_stage(report, scale, runner)
    summary["dynamic"] = _dynamic_stage(report, scale, runner)
    report.note(
        "demand is read-only, so every message/round column matches the "
        "uniform experiments; what realistic load changes is *service*. "
        "The det_optimal message floor survives flash crowds trivially "
        "(messages are demand-independent) and, completing before the "
        "burst, so does its availability — the skew casualty is sublog, "
        "whose hierarchical merge keeps per-machine knowledge sparse "
        "until the final rounds.  Under regional failures, completion "
        "itself turns seed-dependent for the merge-based algorithms "
        "(correlated and random crashes of equal size both can wedge "
        "them) while the deterministic baselines always heal."
    )
    report.summary = summary
    return report
