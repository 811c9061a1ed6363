"""Correctness tooling for the simulator: oracle, differ, fuzzer.

Three layers, each usable on its own:

* :class:`InvariantOracle` (:mod:`repro.oracle.invariants`) — an
  observer that validates the per-round invariant catalog online and
  raises a structured, replayable :class:`OracleViolation`;
* the differential runner (:mod:`repro.oracle.differential`) — steps
  paired engines (fast store vs legacy, delivery model vs its lockstep
  reduction) and reports the first divergent round;
* the schedule fuzzer (:mod:`repro.oracle.fuzzer`) — generates seeded
  adversarial scripts, runs them under the oracle and the differ, and
  shrinks failures to minimal reproductions.  ``repro fuzz`` is its CLI.

The common currency is :class:`ScheduleScript`
(:mod:`repro.oracle.script`): one serializable ``(config, seed,
schedule)`` triple that deterministically rebuilds the failing run.
"""

from .differential import (
    DiffReport,
    Divergence,
    RoundDigest,
    diff_engines,
    diff_fast_vs_legacy,
    diff_reduction,
    engine_digest,
    lockstep_reduction,
)
from .fuzzer import (
    DELIVERY_FAMILIES,
    FuzzCase,
    FuzzReport,
    check_script,
    fuzz,
    generate_script,
    make_skip_delivery_hook,
    replay,
    run_script,
    shrink,
)
from .invariants import InvariantOracle, OracleViolation
from .script import ScheduleScript

__all__ = [
    "DELIVERY_FAMILIES",
    "DiffReport",
    "Divergence",
    "FuzzCase",
    "FuzzReport",
    "InvariantOracle",
    "OracleViolation",
    "RoundDigest",
    "ScheduleScript",
    "check_script",
    "diff_engines",
    "diff_fast_vs_legacy",
    "diff_reduction",
    "engine_digest",
    "fuzz",
    "generate_script",
    "lockstep_reduction",
    "make_skip_delivery_hook",
    "replay",
    "run_script",
    "shrink",
]
