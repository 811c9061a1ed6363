"""F3 — topology sensitivity.

Rounds at a fixed n across the topology family, with the per-topology
lower bound.  The story this figure tells:

* on the high-diameter shapes (path, cycle, lollipop) *every* algorithm is
  pinned to Ω(log n) rounds — sub-logarithmic time is impossible there,
  and sublog tracks the bound within its constant;
* on the low-diameter shapes (kout, tree, star, clustered, prefattach)
  sublog detaches from the baselines and runs in near-constant rounds.
"""

from __future__ import annotations

import statistics
from typing import Optional

from ...analysis.bounds import lower_bound_rounds
from ...graphs.generators import make_topology
from ..runner import index_results, sweep
from ..seeds import Scale
from ..sweeprun import SweepRunner
from ..tables import ExperimentReport, Table

EXPERIMENT_ID = "F3"
TITLE = "Rounds by topology at fixed n"

ALGORITHMS = ("sublog", "namedropper", "swamping", "flooding")
TOPOLOGIES = (
    "path",
    "cycle",
    "lollipop",
    "grid",
    "tree",
    "star_in",
    "clustered",
    "kout",
    "prefattach",
)


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    n = scale.focus_n
    table = Table(
        f"F3: median rounds by topology (n={n})",
        ["topology", "diameter", "lower-bound", *ALGORITHMS],
        caption=f"median over {len(scale.seeds)} seeds",
    )
    summary: dict[str, dict[str, float]] = {}
    for topology in TOPOLOGIES:
        probe = make_topology(topology, n, seed=scale.seeds[0])
        diameter = probe.undirected_diameter(exact=n <= 1500)
        bound = lower_bound_rounds(probe, exact=n <= 1500)
        # One sweep (and so one journal) per topology: each is its own
        # case matrix, so a shared journal would fail the digest check.
        results = sweep(
            ALGORITHMS,
            topology,
            [n],
            scale.seeds,
            params_by_algorithm={"swamping": {"full": False}},
            runner=runner.for_stage(topology) if runner else None,
        )
        indexed = index_results(results)
        row: list[object] = [topology, diameter, bound]
        summary[topology] = {}
        for algorithm in ALGORITHMS:
            runs = indexed.get((algorithm, n), [])
            if not runs:
                row.append("-")
                continue
            median = statistics.median(r.rounds for r in runs)
            summary[topology][algorithm] = median
            incomplete = any(not r.completed for r in runs)
            row.append(f"{median:.0f}" + ("!" if incomplete else ""))
        table.add_row(*row)
    report.add(table)
    report.note(
        "high-diameter rows (path/cycle/lollipop) pin every algorithm to "
        "Omega(log n) by the ball-containment bound; the sublog advantage "
        "appears exactly on the low-diameter rows"
    )
    report.summary = summary
    return report
