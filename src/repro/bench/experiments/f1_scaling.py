"""F1 — round-scaling figure.

The figure version of T1: one series per algorithm, rounds (median over
seeds) against n on random 3-out inputs, with the ball-containment lower
bound as the reference series.  Rendered as the exact numbers the plot
would show.
"""

from __future__ import annotations

import statistics
from typing import Optional

from ...analysis.bounds import lower_bound_rounds
from ...graphs.generators import make_topology
from ..runner import index_results, sweep
from ..seeds import Scale
from ..sweeprun import SweepRunner
from ..tables import ExperimentReport, Figure

EXPERIMENT_ID = "F1"
TITLE = "Rounds vs n (figure series)"

ALGORITHMS = ("sublog", "sublogcoin", "namedropper", "flooding")
#: Mirrors T1's caps (same justification there); sublog runs uncapped.
SIZE_CAPS = {"flooding": 2048, "namedropper": 8192, "sublogcoin": 16384}


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    results = sweep(
        ALGORITHMS,
        "kout",
        scale.sweep_sizes,
        scale.seeds,
        topology_params={"k": 3},
        size_caps=SIZE_CAPS,
        runner=runner,
    )
    indexed = index_results(results)

    figure = Figure(
        "F1: rounds to strong discovery vs n (kout, k=3)",
        "n",
        list(scale.sweep_sizes),
        caption="series are medians; lower-bound = ceil(log2 diameter)",
    )
    bounds = [
        float(
            lower_bound_rounds(
                make_topology("kout", n, seed=scale.seeds[0], k=3),
                exact=n <= 1500,
            )
        )
        for n in scale.sweep_sizes
    ]
    figure.add_series("lower-bound", bounds)
    for algorithm in ALGORITHMS:
        series = []
        for n in scale.sweep_sizes:
            runs = indexed.get((algorithm, n))
            if runs:
                series.append(float(statistics.median(r.rounds for r in runs)))
            else:
                series.append(float("nan"))
        figure.add_series(algorithm, series)
    report.add(figure)
    report.summary = {"x": list(scale.sweep_sizes)}
    return report
