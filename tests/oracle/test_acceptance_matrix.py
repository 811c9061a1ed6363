"""Cross-algorithm differential acceptance matrix.

Every registered algorithm — the PODC'99 classics, both sublog variants,
and the message-optimal/Chord baselines — must survive the full oracle
catalog with byte-identical fast-vs-legacy round digests under
{lockstep, jitter, adversarial} × {no-fault, crash-plan}.  This is the
machine-checked form of the claim that the protocol core, the oracle,
and both engine execution paths are genuinely algorithm-agnostic: adding
an algorithm to the registry automatically adds 6 cells here.

Closure is verified two ways: the oracle's end-of-run ``closure``
invariant recomputes the goal from ground truth on every cell (a
``completed`` flag that disagrees fails the cell), and the clean
lockstep cell additionally asserts the run actually completes — hostile
schedules and crash plans are allowed to stall (rpj is adversarially
slow by design; the deterministic baselines make no liveness promise
once their anchor crashes), but never to lie.
"""

from __future__ import annotations

import pytest

from repro.algorithms import algorithm_names
from repro.algorithms.registry import get_algorithm
from repro.analysis.invariants import closure_deficit
from repro.oracle import ScheduleScript
from repro.oracle.fuzzer import check_script, run_script

#: Delivery-model cells of the matrix (spec string or lockstep None).
DELIVERIES = (None, "jitter:2", "adversarial:2")

#: Fault cells: no faults, and a two-victim crash plan.
FAULT_PLANS = (
    {},
    {1: 3, 4: 5},
)

#: Bound every cell well below the slowest registered cap.
MATRIX_ROUND_CAP = 260


def _script(algorithm: str, delivery, crash_rounds) -> ScheduleScript:
    hostile = bool(delivery) or bool(crash_rounds)
    params = dict(get_algorithm(algorithm).hostile_params) if hostile else {}
    return ScheduleScript(
        algorithm=algorithm,
        topology="kout",
        n=12,
        seed=29,
        goal="strong_alive" if crash_rounds else "strong",
        delivery=delivery,
        crash_rounds=dict(crash_rounds),
        params=params,
        topology_params={"k": 3},
        max_rounds=MATRIX_ROUND_CAP,
    )


class TestAcceptanceMatrix:
    @pytest.mark.parametrize("crash_rounds", FAULT_PLANS, ids=("nofault", "crash"))
    @pytest.mark.parametrize(
        "delivery", DELIVERIES, ids=("lockstep", "jitter", "adversarial")
    )
    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_cell_is_clean(self, algorithm, delivery, crash_rounds):
        # check_script = strict oracle run (monotonicity, derivability,
        # conservation, silence, closure, ...) + per-round digest diff of
        # the fast store against the legacy store.
        script = _script(algorithm, delivery, crash_rounds)
        failure = check_script(script, reduction=False)
        assert failure is None, f"{algorithm}/{delivery}/{crash_rounds}: {failure}"

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_clean_lockstep_reaches_closure(self, algorithm):
        script = _script(algorithm, None, {})
        result, _oracle = run_script(script)
        assert result.completed, f"{algorithm} did not close under clean lockstep"
        # Independent of the engine's verdict: recompute strong closure
        # from the ground-truth knowledge map.
        engine = script.build_engine()
        engine.run(max_rounds=MATRIX_ROUND_CAP)
        assert not closure_deficit(engine.knowledge)
