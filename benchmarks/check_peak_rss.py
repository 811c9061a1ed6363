"""CI gate: fail when an end-to-end benchmark run's peak RSS exceeds its
ceiling, or when any of its runs or query answers was wrong.

Runs ``perfbench/run.py`` at each workload's real size, for 10 s each::

    python3 benchmarks/check_peak_rss.py

Peak RSS repeats to within about 1 MB from run to run, unlike the
timings, so a shared CI runner can gate it.  The ceilings sit above the
measured peaks (about 60 and 51 MB, docs/PERF.md §10) and below what the
simulator read when ``sublog``'s completion broadcast shipped one tuple
of ids per member (about 95 MB), and the 358 and 128 MB read while every
protocol node kept its own set of what it knew and ``import repro``
loaded scipy and networkx.  Exit 1 on any breach.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Workload name -> largest acceptable ``peak_rss_mb``.
CEILINGS_MB = {"sim-sublog-enforced": 85.0, "live-sublog": 80.0}


def measure(workload: str) -> subprocess.CompletedProcess:
    """One ``--trace 0`` perfbench invocation at the workload's real size."""
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "10", "--trace", "0"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )


def main() -> int:
    failed = False
    for workload, ceiling in CEILINGS_MB.items():
        process = measure(workload)
        lines = process.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        peak = result["metrics"].get("peak_rss_mb", {}).get("value")
        ok = bool(result["correct"]) and peak is not None and peak <= ceiling
        shown = "n/a" if peak is None else f"{peak:.1f} MB"
        print(f"{workload}: peak RSS {shown} (ceiling {ceiling:.0f} MB), "
              f"correct {result['correct']} -> {'OK' if ok else 'FAIL'}")
        if not ok:
            print(process.stderr, file=sys.stderr)
        failed = failed or not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
