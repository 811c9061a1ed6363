"""T1 — headline round-complexity table.

Validates the paper's central claim: on the canonical low-diameter
discovery workload (random 3-out registration graphs), the core algorithm
completes strong discovery in rounds that grow doubly-logarithmically,
beating every baseline's growth — while the lower-bound column shows how
close to optimal it runs.

Expected shape (EXPERIMENTS.md records measured values):
  sublog      ≈ 6·⌈log log n⌉ + O(1)   (plateaus: same rounds at 512 and 2048)
  sublogcoin  ≈ Θ(log n) phases
  namedropper ≈ Θ(log n · log log n .. log² n), growing visibly with n
  swamping    ≈ log₂ D + O(1) rounds (optimal rounds, ruinous pointers — T2)
  flooding    ≈ D
  rpj         erratic; included as the cautionary baseline
"""

from __future__ import annotations

import math
import statistics
from typing import Optional

from ...analysis.bounds import lower_bound_rounds
from ...analysis.fitting import fit_all_models
from ...graphs.generators import make_topology
from ..runner import index_results, sweep
from ..seeds import Scale
from ..sweeprun import SweepRunner
from ..tables import ExperimentReport, Table

EXPERIMENT_ID = "T1"
TITLE = "Rounds to strong discovery on random 3-out graphs"

ALGORITHMS = ("sublog", "sublogcoin", "namedropper", "swamping", "flooding", "rpj")

#: Per-algorithm size caps (see runner.sweep).  Classic swamping's pointer
#: complexity is cubic and rpj's rounds can be linear; past these sizes
#: they only burn wall clock.  The namedropper/sublogcoin caps bite only
#: at the ``large`` scale, where each extra doubling costs a single
#: honest run minutes of protocol traffic (in-flight knowledge payloads
#: and the per-pointer legality and learning work over them, on any
#: backend); sublog — the headline curve — runs uncapped.
SIZE_CAPS = {
    "swamping": 512,
    "rpj": 1024,
    "flooding": 2048,
    "namedropper": 8192,
    "sublogcoin": 16384,
}


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentReport:
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    results = sweep(
        ALGORITHMS,
        "kout",
        scale.sweep_sizes,
        scale.seeds,
        params_by_algorithm={"swamping": {"full": False}},
        topology_params={"k": 3},
        size_caps=SIZE_CAPS,
        runner=runner,
    )
    indexed = index_results(results)

    table = Table(
        "T1: median rounds to strong discovery (kout, k=3)",
        ["n", "lower-bound", *ALGORITHMS],
        caption=f"median over {len(scale.seeds)} seeds; '-' = size-capped",
    )
    medians: dict[str, list[tuple[int, float]]] = {a: [] for a in ALGORITHMS}
    for n in scale.sweep_sizes:
        bound = lower_bound_rounds(
            make_topology("kout", n, seed=scale.seeds[0], k=3),
            exact=n <= 1500,
        )
        row: list[object] = [n, bound]
        for algorithm in ALGORITHMS:
            runs = indexed.get((algorithm, n))
            if not runs:
                row.append("-")
                continue
            incomplete = [r for r in runs if not r.completed]
            median = statistics.median(r.rounds for r in runs)
            medians[algorithm].append((n, median))
            cell = f"{median:.0f}" + ("!" if incomplete else "")
            row.append(cell)
        table.add_row(*row)
    report.add(table)

    # Growth-model fits for the two central curves.
    for algorithm in ("sublog", "namedropper"):
        points = medians[algorithm]
        if len(points) >= 3:
            fits = fit_all_models([p[0] for p in points], [p[1] for p in points])
            best = fits[0]
            report.note(
                f"{algorithm}: best-fit growth model = {best.model} "
                f"(rmse {best.rmse:.2f}); next: {fits[1].model} "
                f"(rmse {fits[1].rmse:.2f})"
            )
    sub = dict(medians["sublog"])
    if len(sub) >= 2:
        smallest, largest = min(sub), max(sub)
        report.note(
            f"sublog growth over n={smallest}->{largest}: "
            f"{sub[smallest]:.0f} -> {sub[largest]:.0f} rounds "
            f"(log2 n grows {math.log2(smallest):.0f} -> {math.log2(largest):.0f})"
        )
    nd = dict(medians["namedropper"])
    common = sorted(set(sub) & set(nd))
    # The crossover is the smallest n from which sublog stays at or below
    # namedropper for the rest of the sweep (a single early tie at tiny n
    # does not count).
    crossover = None
    for candidate in common:
        if all(sub[m] <= nd[m] for m in common if m >= candidate):
            crossover = candidate
            break
    if crossover is not None:
        report.note(
            f"round-count crossover vs namedropper at n≈{crossover} "
            "(sublog plateaus, namedropper keeps growing; on pointers "
            "sublog wins at every size — see T2)"
        )
    else:
        report.note(
            "no round-count crossover within this sweep — extend to "
            "n>=2048 (scale=full) to see sublog's plateau overtake "
            "namedropper"
        )
    report.summary = {
        "medians": {a: dict(points) for a, points in medians.items()},
    }
    return report
