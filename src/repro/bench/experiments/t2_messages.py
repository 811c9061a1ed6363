"""T2 — message and pointer complexity across the full algorithm catalog.

Validates the second half of the headline: the core algorithm keeps its
message complexity near-linear in n (the "optimal message complexity" the
PODC announcement advertises), while the round-optimal baseline (swamping)
pays with pointer complexity that is cubic-ish, and Name-Dropper sits in
between.  The deterministic baselines bracket the randomized field from
both sides: ``det_optimal`` (KKS-style aggregate-then-broadcast) sets the
message *floor* of the suite — on random 3-out graphs at n ≥ 1024 its
total message count beats every randomized algorithm — while
``chord_discover`` shows what structured-overlay maintenance costs in
pointers when every machine keeps Θ(log n) fingers current.

Columns report messages, messages-per-machine, pointers, and rounds.  The
pointer floor for strong discovery is Ω(n²) — every machine must receive
~n ids — which the ``sublog`` pointer column approaches within a small
factor (the final roster broadcast dominates; experiment T4 isolates it).

The algorithm list is derived from the registry (never hard-coded), so a
newly registered algorithm joins this experiment automatically.
"""

from __future__ import annotations

import statistics
from typing import Optional

from ...algorithms import algorithm_names
from ...analysis.bounds import optimal_message_bound
from ..runner import index_results, sweep
from ..seeds import Scale
from ..sweeprun import SweepRunner
from ..tables import ExperimentReport, Table

EXPERIMENT_ID = "T2"
TITLE = "Message and pointer complexity on random 3-out graphs"

#: Coin-flipping algorithms — the field det_optimal must beat on messages.
RANDOMIZED = ("rpj", "namedropper", "sublog", "sublogcoin")

#: Classic swamping's pointer complexity is cubic; chord_discover's
#: every-finger delta push is pointer-quadratic with a Θ(log n) fan-out
#: constant (~24M pointers at n=1024).  Past these sizes the cells cost
#: minutes and add no insight.
SIZE_CAPS = {"swamping": 512, "chord_discover": 1024}


def run(scale: Scale, runner: Optional[SweepRunner] = None) -> ExperimentReport:
    algorithms = tuple(algorithm_names())
    report = ExperimentReport(EXPERIMENT_ID, TITLE)
    results = sweep(
        algorithms,
        "kout",
        scale.sweep_sizes,
        scale.seeds,
        params_by_algorithm={"swamping": {"full": False}},
        topology_params={"k": 3},
        size_caps=SIZE_CAPS,
        runner=runner,
    )
    indexed = index_results(results)

    msg_table = Table(
        "T2a: median messages (and messages per machine)",
        ["n", "msg-bound", *algorithms],
        caption="message lower bound = n-1; cells: total (per machine)",
    )
    ptr_table = Table(
        "T2b: median pointers",
        ["n", *algorithms],
        caption="pointer floor for strong discovery is ~n^2/2",
    )
    rnd_table = Table(
        "T2c: median rounds",
        ["n", *algorithms],
        caption="deterministic baselines trade rounds for messages",
    )
    per_node: dict[str, list[float]] = {a: [] for a in algorithms}
    medians: dict[tuple[str, int], float] = {}
    for n in scale.sweep_sizes:
        msg_row: list[object] = [n, optimal_message_bound(n)]
        ptr_row: list[object] = [n]
        rnd_row: list[object] = [n]
        for algorithm in algorithms:
            runs = indexed.get((algorithm, n))
            if not runs:
                msg_row.append("-")
                ptr_row.append("-")
                rnd_row.append("-")
                continue
            messages = statistics.median(r.messages for r in runs)
            pointers = statistics.median(r.pointers for r in runs)
            rounds = statistics.median(r.rounds for r in runs)
            medians[(algorithm, n)] = messages
            per_node[algorithm].append(messages / n)
            msg_row.append(f"{messages:,.0f} ({messages / n:.1f})")
            ptr_row.append(f"{pointers:,.0f}")
            rnd_row.append(f"{rounds:.0f}")
        msg_table.add_row(*msg_row)
        ptr_table.add_row(*ptr_row)
        rnd_table.add_row(*rnd_row)
    report.add(msg_table)
    report.add(ptr_table)
    report.add(rnd_table)

    for algorithm, values in per_node.items():
        if len(values) >= 2:
            report.note(
                f"{algorithm}: messages/machine across the sweep: "
                + " -> ".join(f"{v:.1f}" for v in values)
            )

    # The acceptance claim: at every measured n >= 1024, det_optimal's
    # total message count undercuts every randomized algorithm.
    beats_at = []
    for n in scale.sweep_sizes:
        mine = medians.get(("det_optimal", n))
        field = [medians[(a, n)] for a in RANDOMIZED if (a, n) in medians]
        if mine is not None and field and mine < min(field):
            beats_at.append(n)
    if beats_at:
        report.note(
            "det_optimal beats every randomized algorithm on total "
            f"messages at n in {beats_at}"
        )
    report.summary = {
        "messages_per_node": per_node,
        "det_optimal_beats_randomized_at": beats_at,
    }
    return report
