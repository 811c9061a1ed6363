"""T3 — robustness under message loss and crash failures.

Two sub-experiments at a fixed n on random 3-out inputs:

* **T3a (loss)** — independent message loss at 0/1/5/10 %.  The core
  algorithm runs in ``resilient`` mode (full contact re-reports, retried
  invites) and is compared with Name-Dropper, whose memoryless pushes are
  naturally loss-tolerant.  The metric is round inflation relative to the
  loss-free run, plus completion rate.
* **T3b (crashes)** — a random fraction of machines crashes at round 5;
  the goal becomes ``strong_alive`` (every survivor knows every
  survivor).  The core algorithm uses its watchdog (orphaned members
  revert to singletons) and stagnation broadcasts (dead ids wedge pools);
  the structure-free Name-Dropper is the robustness yardstick.  A crash
  set can cut the survivors' knowledge into weak components that no
  protocol can join again; :class:`SplitObserver` stops such a run at the
  crash round, and the table counts it as split (and not done) instead
  of letting it burn its round cap.

The honest finding this table documents: leader-based structure buys a
large round/message advantage in the common case at a measurable (bounded)
robustness cost — precisely the trade the fault machinery is there to
contain.
"""

from __future__ import annotations

import statistics
from typing import TYPE_CHECKING, Dict, List, Mapping, Union

from ...graphs.knowledge import KnowledgeGraph
from ...sim.faults import FaultPlan, crash_fraction_plan
from ...sim.metrics import RunResult
from ...sim.observers import Observer
from ..runner import Case, build_graph, run_case
from ..seeds import Scale
from ..tables import ExperimentReport, Table

if TYPE_CHECKING:  # pragma: no cover
    from ...sim.engine import SynchronousEngine

EXPERIMENT_ID = "T3"
TITLE = "Robustness under message loss and crash failures"

LOSS_RATES = (0.0, 0.01, 0.05, 0.1)
CRASH_FRACTIONS = (0.1, 0.2)
CRASH_ROUND = 5

SUBLOG_FAULT_PARAMS = {
    "resilient": True,
    "watchdog_phases": 3,
    "stagnation_phases": 4,
}


class SurvivorsSplit(Exception):
    """The survivors' knowledge fell apart: ``strong_alive`` is unreachable.

    Attributes:
        round_no: The round at whose end the split was seen.
        components: The survivors' weak components, each sorted.
    """

    def __init__(self, round_no: int, components: List[List[int]]) -> None:
        sizes = sorted(len(component) for component in components)
        super().__init__(
            f"round {round_no}: survivors split into {len(components)} "
            f"weak components of sizes {sizes}"
        )
        self.round_no = round_no
        self.components = components


class SplitObserver(Observer):
    """Stops a run whose survivors can never all know each other.

    After machines crash, at the first round end with no message in
    flight, it takes the alive machines' knowledge restricted to alive
    machines.  From then on only alive machines send, and a message
    carries ids its sender knows to a machine its sender knows, so no
    knowledge edge ever joins two of that graph's weak components.  With
    more than one component no protocol can reach ``strong_alive``, and
    the observer raises :class:`SurvivorsSplit`, the way a strict
    ``BallContainmentObserver`` stops a run on a violation.
    """

    def __init__(self) -> None:
        self._crashed_seen = 0

    def on_round_end(self, engine: "SynchronousEngine", round_no: int) -> None:
        crashed = len(engine.crashed_nodes)
        if crashed == self._crashed_seen or engine.delivery.in_flight():
            return
        self._crashed_seen = crashed
        alive = engine.alive_nodes
        survivors = KnowledgeGraph(
            {node: [v for v in engine.knowledge[node] if v in alive] for node in alive}
        )
        components = survivors.weak_components()
        if len(components) > 1:
            raise SurvivorsSplit(round_no, sorted(sorted(c) for c in components))


def crash_run(
    algorithm: str, params: Mapping[str, object], n: int, seed: int, fraction: float
) -> Union[RunResult, SurvivorsSplit]:
    """One T3b run: *fraction* of the machines crash at :data:`CRASH_ROUND`.

    Returns the run's result, or the :class:`SurvivorsSplit` that stopped
    it when the crashes left the survivors in more than one piece.
    """
    case = Case(
        algorithm=algorithm,
        topology="kout",
        n=n,
        seed=seed,
        goal="strong_alive",
        params=params,
        topology_params={"k": 3},
    )
    graph = build_graph(case)
    plan = crash_fraction_plan(graph.node_ids, fraction, CRASH_ROUND, seed)
    try:
        return run_case(case, fault_plan=plan, graph=graph, observers=[SplitObserver()])
    except SurvivorsSplit as split:
        return split


def _median_rounds(results: List[RunResult]) -> float:
    return statistics.median(r.rounds for r in results)


def _rounds_cell(results: List[RunResult]) -> str:
    return f"{_median_rounds(results):.0f}" if results else "-"


def _rate(results: List[RunResult]) -> float:
    return sum(1 for r in results if r.completed) / len(results)


def run(scale: Scale) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    n = scale.focus_n

    loss_table = Table(
        f"T3a: message loss (kout, k=3, n={n})",
        ["loss", "sublog rounds", "sublog done", "namedropper rounds", "nd done"],
        caption="rounds are medians over seeds; done = completion rate",
    )
    summary: Dict[str, Dict[float, float]] = {"sublog": {}, "namedropper": {}}
    for loss in LOSS_RATES:
        per_algorithm: Dict[str, List[RunResult]] = {}
        for algorithm, params in (
            ("sublog", SUBLOG_FAULT_PARAMS),
            ("namedropper", {}),
        ):
            runs = []
            for seed in scale.seeds:
                case = Case(
                    algorithm=algorithm,
                    topology="kout",
                    n=n,
                    seed=seed,
                    params=params,
                    topology_params={"k": 3},
                )
                plan = FaultPlan(loss_rate=loss, seed=seed)
                runs.append(run_case(case, fault_plan=plan))
            per_algorithm[algorithm] = runs
            summary[algorithm][loss] = _median_rounds(runs)
        loss_table.add_row(
            f"{loss:.0%}",
            f"{_median_rounds(per_algorithm['sublog']):.0f}",
            f"{_rate(per_algorithm['sublog']):.0%}",
            f"{_median_rounds(per_algorithm['namedropper']):.0f}",
            f"{_rate(per_algorithm['namedropper']):.0%}",
        )
    report.add(loss_table)

    crash_table = Table(
        f"T3b: crash failures at round {CRASH_ROUND} (goal: survivors know survivors)",
        [
            "crashed",
            "sublog rounds",
            "sublog done",
            "sublog split",
            "namedropper rounds",
            "nd done",
            "nd split",
        ],
        caption=(
            "sublog runs with watchdog + stagnation broadcasts; split = runs "
            f"stopped at round {CRASH_ROUND} because the survivors' knowledge "
            "fell into weak components no protocol can join; done = completion "
            "rate over all runs; rounds = medians over the runs not split"
        ),
    )
    crash_summary: Dict[str, Dict[float, float]] = {"sublog": {}, "namedropper": {}}
    for fraction in CRASH_FRACTIONS:
        cells: List[object] = [f"{fraction:.0%}"]
        for algorithm, params in (
            ("sublog", SUBLOG_FAULT_PARAMS),
            ("namedropper", {}),
        ):
            outcomes = [crash_run(algorithm, params, n, seed, fraction) for seed in scale.seeds]
            runs = [o for o in outcomes if isinstance(o, RunResult)]
            done = sum(1 for r in runs if r.completed) / len(outcomes)
            crash_summary[algorithm][fraction] = done
            cells += [_rounds_cell(runs), f"{done:.0%}", len(outcomes) - len(runs)]
        crash_table.add_row(*cells)
    report.add(crash_table)
    report.summary = {"loss": summary, "crash": crash_summary}
    return report
