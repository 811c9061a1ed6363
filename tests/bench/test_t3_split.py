"""T3b tells a goal no protocol can reach from a protocol that failed.

When the crashes leave the survivors' knowledge in more than one weak
component, ``strong_alive`` can never hold; T3b stops such a run at the
crash round and counts it as split instead of letting it burn its cap.
"""

from __future__ import annotations

import pytest

from repro import discover
from repro.bench.experiments.t3_faults import (
    CRASH_ROUND,
    SUBLOG_FAULT_PARAMS,
    SplitObserver,
    SurvivorsSplit,
    crash_run,
)
from repro.sim.faults import FaultPlan
from repro.sim.metrics import RunResult

#: A path 0 -> 1 -> 2: crashing 1 before anyone speaks cuts 0 from 2.
PATH = {0: [1], 1: [2], 2: []}


@pytest.mark.parametrize("seed, cut_off", [(23, 601), (71, 893)])
def test_split_runs_stop_at_the_crash_round(seed, cut_off):
    # T3's full-scale cell: n = 1024, 20% crashed at round 5.  Without the
    # observer these runs spend their whole 420-round cap.
    outcome = crash_run("sublog", SUBLOG_FAULT_PARAMS, 1024, seed, 0.2)
    assert isinstance(outcome, SurvivorsSplit)
    assert outcome.round_no == CRASH_ROUND
    assert [cut_off] in outcome.components


@pytest.mark.parametrize("seed", [11, 37, 53])
def test_connected_runs_still_finish(seed):
    outcome = crash_run("sublog", SUBLOG_FAULT_PARAMS, 1024, seed, 0.2)
    assert isinstance(outcome, RunResult)
    assert outcome.completed


def test_observer_reports_the_components():
    with pytest.raises(SurvivorsSplit) as raised:
        discover(
            PATH,
            algorithm="namedropper",
            goal="strong_alive",
            fault_plan=FaultPlan(crash_rounds={1: 1}),
            observers=[SplitObserver()],
        )
    assert raised.value.round_no == 1
    assert raised.value.components == [[0], [2]]


def test_connected_survivors_run_to_the_goal():
    result = discover(
        PATH,
        algorithm="namedropper",
        goal="strong_alive",
        fault_plan=FaultPlan(crash_rounds={2: 1}),
        observers=[SplitObserver()],
    )
    assert result.completed
