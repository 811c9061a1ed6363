"""Crash-safe, resumable sweep execution.

Every sweep runs its cells through :class:`SweepRunner`:
:func:`repro.bench.runner.sweep` builds the case matrix and hands it
here, and ``repro sweep`` and ``repro experiment`` build the runner from
their flags.  A long sweep dies for boring reasons — one pathological
cell, an OOM kill, a laptop lid — so the runner wraps the cell body
(:func:`~repro.bench.runner.run_case`):

* every cell runs inside a guard, so a worker exception becomes a
  structured :class:`CellFailure` record instead of a sweep abort;
* failed cells retry up to ``retries`` times with bounded,
  seed-deterministic exponential backoff (same seed → same delays, so a
  re-run reproduces the schedule), and ``cell_timeout`` bounds one
  attempt's wall clock via ``SIGALRM`` where the platform has it;
* with a ``journal`` path, completed cells append incrementally to a
  JSONL log headed by a schema-versioned manifest (case-matrix digest,
  delivery spec, git describe), fsynced per record — an interrupted
  sweep restarted with ``resume=True`` skips journaled cells and
  produces results identical to an uninterrupted run;
* a ``progress`` callback receives one :class:`SweepProgress` event per
  settled cell (completed / failed / retried / resumed counts) for live
  rendering by the CLI.

Determinism is inherited, not re-proven: a cell's randomness derives
entirely from its case seed, so running it later, in another process, or
after a crash produces the same :class:`~repro.sim.metrics.RunResult`.
That is the whole reason resume-by-skip is sound.

The fault-injection hook (``fault_hook``, e.g. :class:`FailCell` /
:class:`SlowCell`) exists for the test suite and CI: it lets a test make
one named cell crash or stall deterministically, in-process or in a
worker, without touching the engine.
"""

from __future__ import annotations

import hashlib
import signal
import subprocess
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..sim.metrics import RunResult
from ..sim.rng import derive_seed
from .runner import Case, case_key, run_case
from .store import (
    JOURNAL_SCHEMA,
    append_journal,
    load_journal,
    result_from_dict,
    result_to_dict,
)

#: Base delay (seconds) of the first retry backoff.
BACKOFF_BASE = 0.05
#: Ceiling (seconds) on any single backoff sleep.
BACKOFF_CAP = 2.0
#: How many trailing traceback lines a failure record keeps.
TRACEBACK_TAIL = 20


class CellTimeout(Exception):
    """One cell attempt exceeded the configured wall-clock budget."""


class SweepError(RuntimeError):
    """Raised by :func:`~repro.bench.runner.sweep` when cells still fail.

    Raised *after* every other cell has run (and been journaled), so a
    journal + resume never loses sibling work to one bad cell.
    """

    def __init__(self, failures: Sequence["CellFailure"]):
        self.failures = list(failures)
        lines = ", ".join(
            f"{failure.case.display}/n={failure.case.n}/seed={failure.case.seed}"
            f" ({failure.error_type})"
            for failure in self.failures[:4]
        )
        more = "" if len(self.failures) <= 4 else f", +{len(self.failures) - 4} more"
        super().__init__(
            f"{len(self.failures)} sweep cell(s) failed after retries: {lines}{more}"
        )


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell that failed all its attempts."""

    index: int
    key: str
    case: Case
    attempts: int
    error_type: str
    error_message: str
    traceback_tail: str = ""

    def to_record(self) -> Dict[str, Any]:
        return {
            "type": "failure",
            "key": self.key,
            "index": self.index,
            "attempts": self.attempts,
            "error": {
                "type": self.error_type,
                "message": self.error_message,
                "traceback": self.traceback_tail,
            },
        }


@dataclass(frozen=True)
class SweepProgress:
    """One live progress event: a cell settled (or was restored)."""

    status: str  #: ``"ok"``, ``"failed"``, or ``"resumed"``
    index: int  #: position of the cell in the case matrix
    case: Case
    attempts: int  #: attempts this run spent on the cell (0 when resumed)
    completed: int  #: cells done so far, including resumed ones
    failed: int  #: cells failed-for-good so far
    retried: int  #: total retry attempts spent so far
    resumed: int  #: cells restored from the journal
    total: int  #: size of the case matrix

    @property
    def settled(self) -> int:
        return self.completed + self.failed

    def format(self) -> str:
        cell = f"{self.case.display} n={self.case.n} seed={self.case.seed}"
        note = ""
        if self.status == "failed":
            note = " FAILED"
        elif self.status == "resumed":
            note = " (resumed)"
        elif self.attempts > 1:
            note = f" (attempt {self.attempts})"
        return f"[{self.settled}/{self.total}] {cell}{note}"


@dataclass
class SweepReport:
    """Everything a sweep learned."""

    results: List[RunResult]
    failures: List[CellFailure]
    completed: int = 0
    resumed: int = 0
    retried: int = 0


# -- fault-injection hooks (picklable, for tests and CI) ----------------------------


@dataclass
class FailCell:
    """Test hook: raise on the first ``fail_attempts`` attempts of every
    cell whose (algorithm, n, seed) matches.

    ``None`` matches anything, so ``FailCell(n=256)`` fails every n=256
    cell.  With ``fail_attempts`` larger than the retry budget the cell
    fails for good; smaller, and the retry loop recovers it — both sides
    of the acceptance criterion.
    """

    algorithm: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None
    fail_attempts: int = 10**9

    def __call__(self, case: Case, attempt: int) -> None:
        if self.algorithm is not None and case.algorithm != self.algorithm:
            return
        if self.n is not None and case.n != self.n:
            return
        if self.seed is not None and case.seed != self.seed:
            return
        if attempt < self.fail_attempts:
            raise RuntimeError(
                f"injected fault (attempt {attempt + 1}) in "
                f"{case.algorithm}/n={case.n}/seed={case.seed}"
            )


@dataclass
class SlowCell:
    """Test hook: stall matching cells for ``seconds`` before they run,
    long enough to trip ``cell_timeout``."""

    seconds: float
    algorithm: Optional[str] = None
    n: Optional[int] = None
    seed: Optional[int] = None

    def __call__(self, case: Case, attempt: int) -> None:
        if self.algorithm is not None and case.algorithm != self.algorithm:
            return
        if self.n is not None and case.n != self.n:
            return
        if self.seed is not None and case.seed != self.seed:
            return
        time.sleep(self.seconds)


# -- worker body --------------------------------------------------------------------


def backoff_delay(seed: int, attempt: int) -> float:
    """Seed-deterministic exponential backoff for retry *attempt* (0-based).

    Doubles per attempt from :data:`BACKOFF_BASE`, jittered into
    ``[0.5x, 1.5x)`` by a uniform variate derived from the cell seed (so a
    re-run reproduces the exact schedule), capped at :data:`BACKOFF_CAP`.
    """
    unit = (derive_seed(seed, "sweep-backoff", attempt) & 0xFFFFFFFF) / 2.0**32
    return min(BACKOFF_CAP, BACKOFF_BASE * (2.0**attempt) * (0.5 + unit))


def _alarm_available() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _call_with_timeout(thunk: Callable[[], RunResult], timeout: Optional[float]):
    """Run *thunk*, raising :class:`CellTimeout` after *timeout* seconds.

    Uses ``SIGALRM``/``setitimer``, which interrupts pure-Python compute
    loops (a thread-based watchdog could not).  Where the platform lacks
    ``SIGALRM`` — or off the main thread — the timeout degrades to
    unenforced rather than breaking the sweep.
    """
    if timeout is None or not _alarm_available():
        return thunk()

    def _on_alarm(signum, frame):
        raise CellTimeout(f"cell exceeded {timeout:.1f}s wall clock")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class _CellOutcome:
    """Picklable envelope a worker sends back for one cell: its result, or
    its failure record once every attempt has failed."""

    index: int
    attempts: int
    result: Optional[RunResult] = None
    failure: Optional[CellFailure] = None


def _execute_cell(
    index: int,
    key: str,
    case: Case,
    *,
    enforce_legality: bool,
    backend: Optional[str],
    retries: int,
    cell_timeout: Optional[float],
    fault_hook: Optional[Callable[[Case, int], None]],
) -> _CellOutcome:
    """Module-level worker body: run one cell with retries inside the
    worker, so the pool sees exactly one task per cell and the retry
    schedule stays with the cell regardless of which process runs it."""

    def _attempt(attempt: int) -> RunResult:
        # The hook runs inside the timed region: a SlowCell stall is a
        # stand-in for a slow cell and must trip the timeout like one.
        if fault_hook is not None:
            fault_hook(case, attempt)
        return run_case(case, enforce_legality=enforce_legality, backend=backend)

    last: Optional[BaseException] = None
    for attempt in range(retries + 1):
        try:
            result = _call_with_timeout(lambda: _attempt(attempt), cell_timeout)
            return _CellOutcome(index=index, attempts=attempt + 1, result=result)
        except Exception as error:  # noqa: BLE001 — the guard is the point
            last = error
            if attempt < retries:
                time.sleep(backoff_delay(case.seed, attempt))
    tail = "".join(
        traceback.format_exception(type(last), last, last.__traceback__)
    ).splitlines()[-TRACEBACK_TAIL:]
    failure = CellFailure(
        index=index,
        key=key,
        case=case,
        attempts=retries + 1,
        error_type=type(last).__name__,
        error_message=str(last),
        traceback_tail="\n".join(tail),
    )
    return _CellOutcome(index=index, attempts=retries + 1, failure=failure)


# -- the runner ---------------------------------------------------------------------


def matrix_digest(keys: Sequence[str]) -> str:
    """Stable fingerprint of a case matrix (order-sensitive)."""
    return hashlib.sha256("\n".join(keys).encode("utf-8")).hexdigest()[:16]


def check_matrix(path: Path, manifest: Dict[str, Any], digest: str) -> None:
    """Refuse to resume a journal written for another case matrix."""
    recorded = manifest.get("matrix", {}).get("digest")
    if recorded != digest:
        raise ValueError(
            f"{path}: journal belongs to a different case matrix "
            f"(digest {recorded!r}, this sweep is {digest!r})"
        )


def journal_is_fresh(path: Path, resume: bool) -> bool:
    """True when *path* starts a new journal, False when it is resumed.

    A missing or empty file is fresh.  An existing journal is continued
    only with *resume*; without it this raises :class:`FileExistsError`,
    so a rerun that forgot ``--resume`` never overwrites finished cells.
    """
    if not path.exists() or path.stat().st_size == 0:
        return True
    if not resume:
        raise FileExistsError(
            f"{path}: journal already exists; pass resume=True "
            "(--resume) to continue it, or remove the file"
        )
    return False


def _git_describe() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        return "unknown"


@dataclass
class SweepRunner:
    """Crash-safe executor for a list of :class:`Case` cells, and the one
    holder of sweep settings.

    Pass one to :func:`~repro.bench.runner.sweep` (``runner=``) or to an
    experiment driver's ``run``; call :meth:`run` directly when you
    already hold a case list and want partial results on failure (the
    ``repro sweep`` command does).  ``resume=True`` needs a ``journal``.
    """

    workers: Optional[int] = None
    retries: int = 0
    cell_timeout: Optional[float] = None
    journal: Optional[Union[str, Path]] = None
    resume: bool = False
    progress: Optional[Callable[[SweepProgress], None]] = None
    enforce_legality: bool = False
    backend: Optional[str] = None
    fault_hook: Optional[Callable[[Case, int], None]] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.resume and self.journal is None:
            raise ValueError("resume=True (--resume) needs a journal (--journal) to resume from")

    def for_stage(self, stage: str) -> "SweepRunner":
        """A copy of this runner whose journal is forked for *stage*.

        Separate sweeps cannot share one journal — each is its own case
        matrix with its own digest — so a stage journals to
        ``<stem>.<stage>.jsonl`` next to the configured path.  ``repro
        experiment`` forks one per experiment id; F3 forks one per
        topology below that, and T9 one per stage.  A runner without a
        journal is returned as it is.
        """
        if self.journal is None:
            return self
        path = Path(self.journal)
        suffix = path.suffix or ".jsonl"
        return replace(self, journal=path.with_name(f"{path.stem}.{stage}{suffix}"))

    def run(self, cases: Sequence[Case]) -> SweepReport:
        keys = [case_key(case) for case in cases]
        restored = self._restore(keys)

        outcomes: Dict[int, _CellOutcome] = {}
        counts = {
            "completed": len(restored),
            "failed": 0,
            "retried": 0,
            "resumed": len(restored),
        }
        for index in sorted(restored):
            self._emit("resumed", index, cases[index], 0, counts, len(cases))

        pending = [index for index in range(len(cases)) if index not in restored]
        for outcome in self._execute(pending, cases, keys):
            outcomes[outcome.index] = outcome
            if outcome.failure is None:
                # A cell that settled on attempt k spent k-1 retries.
                counts["retried"] += outcome.attempts - 1
                counts["completed"] += 1
                self._journal(
                    {
                        "type": "result",
                        "key": keys[outcome.index],
                        "index": outcome.index,
                        "attempts": outcome.attempts,
                        "result": result_to_dict(outcome.result, include_rounds=True),
                    }
                )
            else:
                # A failed cell spent all of its attempts.
                counts["retried"] += outcome.attempts
                counts["failed"] += 1
                self._journal(outcome.failure.to_record())
            self._emit(
                "ok" if outcome.failure is None else "failed",
                outcome.index,
                cases[outcome.index],
                outcome.attempts,
                counts,
                len(cases),
            )

        results: List[RunResult] = []
        failures: List[CellFailure] = []
        for index in range(len(cases)):
            if index in restored:
                results.append(restored[index])
            elif outcomes[index].failure is None:
                results.append(outcomes[index].result)
            else:
                failures.append(outcomes[index].failure)
        self._journal(
            {
                "type": "complete",
                "completed": counts["completed"],
                "failed": counts["failed"],
                "retried": counts["retried"],
                "resumed": counts["resumed"],
            }
        )
        return SweepReport(
            results=results,
            failures=failures,
            completed=counts["completed"],
            resumed=counts["resumed"],
            retried=counts["retried"],
        )

    # -- internals ------------------------------------------------------------

    def _emit(
        self,
        status: str,
        index: int,
        case: Case,
        attempts: int,
        counts: Dict[str, int],
        total: int,
    ) -> None:
        if self.progress is None:
            return
        self.progress(
            SweepProgress(
                status=status,
                index=index,
                case=case,
                attempts=attempts,
                completed=counts["completed"],
                failed=counts["failed"],
                retried=counts["retried"],
                resumed=counts["resumed"],
                total=total,
            )
        )

    def _restore(self, keys: Sequence[str]) -> Dict[int, RunResult]:
        """Open or resume the journal; return results restored from it."""
        if self.journal is None:
            return {}
        path = Path(self.journal)
        digest = matrix_digest(keys)
        if journal_is_fresh(path, self.resume):
            append_journal(path, self._manifest(len(keys), digest))
            return {}
        manifest, results, _failures = load_journal(path)
        check_matrix(path, manifest, digest)
        index_by_key = {key: index for index, key in enumerate(keys)}
        restored: Dict[int, RunResult] = {}
        for key, record in results.items():
            index = index_by_key.get(key)
            if index is not None:
                restored[index] = result_from_dict(record["result"])
        # Journaled failures are *not* restored: a resume re-runs them.
        append_journal(path, {"type": "resume", "skipped": len(restored)})
        return restored

    def _manifest(self, cells: int, digest: str) -> Dict[str, Any]:
        return {
            "type": "manifest",
            "schema": JOURNAL_SCHEMA,
            "matrix": {"cells": cells, "digest": digest},
            "settings": {
                "workers": self.workers,
                "retries": self.retries,
                "cell_timeout": self.cell_timeout,
                "enforce_legality": self.enforce_legality,
                "backend": self.backend,
            },
            "git": _git_describe(),
            "metadata": dict(self.metadata),
        }

    def _journal(self, record: Dict[str, Any]) -> None:
        if self.journal is not None:
            append_journal(self.journal, record)

    def _execute(
        self, pending: Sequence[int], cases: Sequence[Case], keys: Sequence[str]
    ):
        """Yield one :class:`_CellOutcome` per pending cell, as it settles."""
        execute = partial(
            _execute_cell,
            enforce_legality=self.enforce_legality,
            backend=self.backend,
            retries=self.retries,
            cell_timeout=self.cell_timeout,
            fault_hook=self.fault_hook,
        )
        if self.workers is None or self.workers < 2 or len(pending) < 2:
            for index in pending:
                yield execute(index, keys[index], cases[index])
            return
        # submit + wait (rather than pool.map) so each cell journals the
        # moment it settles — an interruption loses only cells in flight.
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(execute, index, keys[index], cases[index]) for index in pending}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
