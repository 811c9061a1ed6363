"""Seed aggregation and confidence intervals for experiment tables.

Randomized algorithms are run over several seeds; the tables report the
median (robust to the occasional unlucky coin sequence) together with a
Student-t confidence interval on the mean, computed with scipy.  scipy is
imported only when an interval has non-zero width, so importing this
module (and :mod:`repro`) does not load it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..sim.metrics import RunResult


@dataclass(frozen=True)
class Aggregate:
    """Summary statistics of one metric across seeds."""

    count: int
    mean: float
    median: float
    stdev: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def format(self, digits: int = 1) -> str:
        """Human-readable ``median [min..max]`` rendering."""
        return (
            f"{self.median:.{digits}f} "
            f"[{self.minimum:.{digits}f}..{self.maximum:.{digits}f}]"
        )


def aggregate(values: Sequence[float], confidence: float = 0.95) -> Aggregate:
    """Aggregate one metric across seeds with a t-interval on the mean."""
    if not values:
        raise ValueError("cannot aggregate an empty sample")
    data = [float(v) for v in values]
    mean = statistics.fmean(data)
    median = statistics.median(data)
    if len(data) > 1:
        stdev = statistics.stdev(data)
        sem = stdev / math.sqrt(len(data))
        if sem > 0:
            from scipy import stats as scipy_stats

            margin = scipy_stats.t.ppf((1 + confidence) / 2, df=len(data) - 1) * sem
        else:
            margin = 0.0
    else:
        stdev = 0.0
        margin = 0.0
    return Aggregate(
        count=len(data),
        mean=mean,
        median=median,
        stdev=stdev,
        minimum=min(data),
        maximum=max(data),
        ci_low=mean - margin,
        ci_high=mean + margin,
    )


def aggregate_results(
    results: Iterable[RunResult], metric: str = "rounds"
) -> Aggregate:
    """Aggregate one :class:`RunResult` attribute across seeds."""
    values = [float(getattr(result, metric)) for result in results]
    return aggregate(values)


def completion_rate(results: Sequence[RunResult]) -> float:
    """Fraction of runs that reached the goal."""
    if not results:
        raise ValueError("cannot compute completion rate of an empty sample")
    return sum(1 for result in results if result.completed) / len(results)


def group_by(
    results: Iterable[RunResult], *keys: str
) -> Dict[tuple, List[RunResult]]:
    """Group results by RunResult attributes (e.g. ``"algorithm"``, ``"n"``)."""
    grouped: Dict[tuple, List[RunResult]] = {}
    for result in results:
        key = tuple(getattr(result, attribute) for attribute in keys)
        grouped.setdefault(key, []).append(result)
    return grouped
