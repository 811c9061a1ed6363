"""Benchmark harness: sweep runner, tables, scales, experiments, and
record-and-replay engine kernels."""

from .replay import RecordedRun, ReplayNode, record_run, replay_engine
from .runner import (
    Case,
    build_cases,
    build_graph,
    case_key,
    index_results,
    run_case,
    sweep,
    sweep_seeds,
)
from .seeds import CANONICAL_SEEDS, SCALES, Scale, bench_scale
from .store import (
    append_journal,
    load_journal,
    load_metadata,
    load_results,
    read_journal,
    save_results,
)
from .sweeprun import (
    CellFailure,
    CellTimeout,
    SweepError,
    SweepProgress,
    SweepReport,
    SweepRunner,
)
from .tables import ExperimentReport, Figure, Series, Table

__all__ = [
    "CANONICAL_SEEDS",
    "Case",
    "CellFailure",
    "CellTimeout",
    "ExperimentReport",
    "Figure",
    "RecordedRun",
    "ReplayNode",
    "SCALES",
    "Scale",
    "Series",
    "SweepError",
    "SweepProgress",
    "SweepReport",
    "SweepRunner",
    "Table",
    "append_journal",
    "bench_scale",
    "build_cases",
    "build_graph",
    "case_key",
    "index_results",
    "load_journal",
    "load_metadata",
    "load_results",
    "read_journal",
    "record_run",
    "replay_engine",
    "run_case",
    "save_results",
    "sweep",
    "sweep_seeds",
]
