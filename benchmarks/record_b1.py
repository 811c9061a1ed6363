"""Regenerate ``BENCH_B1.json`` — the committed B1 kernel baseline.

Measures the engine's round throughput on the steady-state replay kernel
(the final, heaviest rounds of a recorded Name-Dropper run — see
``docs/PERF.md``) and on the cold-start kernel, on both engine backends
and both legality modes.  Writes one machine-readable JSON record
including the git revision it was measured at::

    PYTHONPATH=src python benchmarks/record_b1.py --out BENCH_B1.json

The committed file is documentation plus one CI gate
(``benchmarks/check_b1_regression.py`` re-times the n=256 kernel and
fails on a large ns/pointer regression): absolute numbers are
machine-dependent, but the backend *ratio* is what the fast store
promises — fast >= 3x over legacy at n=256.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import repro  # noqa: E402
from repro.algorithms.registry import get_algorithm  # noqa: E402
from repro.bench.replay import RecordedRun, record_run, replay_engine  # noqa: E402
from repro.graphs import make_topology  # noqa: E402
from repro.sim import BACKENDS, SynchronousEngine  # noqa: E402

SEED = 11
STEADY_WINDOW = 5
ACCEPTANCE_SPEEDUP = 3.0
#: Best-of repeat counts per size (large-n windows are seconds long).
REPEATS = {256: 7, 1024: 3, 4096: 1}


def best_of(make_engine: Callable[[], SynchronousEngine],
            rounds: int, repeats: int) -> float:
    """Best-of-*repeats* wall time of stepping a fresh engine *rounds*
    times; engine construction is excluded from the timed region."""
    best = float("inf")
    for _ in range(repeats):
        engine = make_engine()
        started = time.perf_counter()
        for _ in range(rounds):
            engine.step()
        best = min(best, time.perf_counter() - started)
    return best


def steady_case(recorded: RecordedRun, n: int, enforce: bool,
                repeats: int) -> Dict[str, object]:
    start = recorded.rounds - STEADY_WINDOW + 1
    window_pointers = sum(
        stats.pointers for stats in recorded.result.round_stats[start - 1:]
    )
    timings = {}
    for backend in BACKENDS:
        timings[backend] = best_of(
            lambda: replay_engine(
                recorded, start_round=start, backend=backend, force=True,
                enforce_legality=enforce,
            ),
            STEADY_WINDOW,
            repeats,
        )
    return {
        "kernel": "steady_replay",
        "n": n,
        "seed": SEED,
        "enforce_legality": enforce,
        "window_rounds": STEADY_WINDOW,
        "window_pointers": window_pointers,
        "bytes_per_node": (n + 7) >> 3,
        "matrix_mb": round(n * ((n + 7) >> 3) / (1 << 20), 1),
        "legacy_ms": round(timings["legacy"] * 1e3, 3),
        "fast_ms": round(timings["fast"] * 1e3, 3),
        "speedup": round(timings["legacy"] / timings["fast"], 2),
        "rounds_per_s_legacy": round(STEADY_WINDOW / timings["legacy"], 1),
        "rounds_per_s_fast": round(STEADY_WINDOW / timings["fast"], 1),
        "ns_per_pointer_legacy": round(
            timings["legacy"] * 1e9 / window_pointers, 1
        ),
        "ns_per_pointer_fast": round(
            timings["fast"] * 1e9 / window_pointers, 1
        ),
    }


def cold_start_case(graph, n: int, repeats: int) -> Dict[str, object]:
    """The pre-existing B1 kernel: 5 rounds from a cold engine, protocol
    work included.  Kept for continuity — it is protocol-dominated, so
    the backends are expected to be close here."""
    spec = get_algorithm("namedropper")
    timings = {}
    for backend in BACKENDS:
        timings[backend] = best_of(
            lambda: SynchronousEngine(
                graph, spec.node_factory(), seed=SEED,
                enforce_legality=False, backend=backend,
            ),
            5,
            repeats,
        )
    return {
        "kernel": "cold_start_5_rounds",
        "n": n,
        "seed": SEED,
        "enforce_legality": False,
        "legacy_ms": round(timings["legacy"] * 1e3, 3),
        "fast_ms": round(timings["fast"] * 1e3, 3),
        "speedup": round(timings["legacy"] / timings["fast"], 2),
    }


def git_rev() -> Optional[str]:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT, text=True
        ).strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", nargs="+", type=int,
                        default=[256, 1024, 4096])
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_B1.json"))
    args = parser.parse_args(argv)

    results: List[Dict[str, object]] = []
    for n in args.sizes:
        repeats = REPEATS.get(n, 1)
        graph = make_topology("kout", n, seed=SEED, k=3)
        spec = get_algorithm("namedropper")
        probe = repro.discover(
            graph, algorithm="namedropper", seed=SEED, enforce_legality=False
        )
        print(f"n={n}: recording {probe.rounds}-round run "
              f"({probe.pointers:,} pointers)...", flush=True)
        recorded = record_run(
            graph, spec.node_factory(), seed=SEED,
            snapshot_rounds=(probe.rounds - STEADY_WINDOW,),
            max_rounds=spec.round_cap(n),
        )
        for enforce in (False, True):
            case = steady_case(recorded, n, enforce, repeats)
            results.append(case)
            print(f"  steady enforce={enforce}: legacy {case['legacy_ms']}ms "
                  f"fast {case['fast_ms']}ms -> {case['speedup']}x", flush=True)
        case = cold_start_case(graph, n, repeats)
        results.append(case)
        print(f"  cold-start: legacy {case['legacy_ms']}ms "
              f"fast {case['fast_ms']}ms -> {case['speedup']}x", flush=True)

    acceptance = next(
        (case for case in results
         if case["kernel"] == "steady_replay" and case["n"] == 256
         and not case["enforce_legality"]),
        None,
    )
    payload = {
        "benchmark": "B1",
        "algorithm": "namedropper",
        "topology": "kout(k=3)",
        "seed": SEED,
        "steady_window_rounds": STEADY_WINDOW,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "backends": list(BACKENDS),
        "acceptance": {
            "kernel": "steady_replay n=256 enforce_legality=false",
            "backend": "fast",
            "baseline_backend": "legacy",
            "required_speedup": ACCEPTANCE_SPEEDUP,
            "measured_speedup": acceptance["speedup"] if acceptance else None,
            "pass": bool(
                acceptance and acceptance["speedup"] >= ACCEPTANCE_SPEEDUP
            ),
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if payload["acceptance"]["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
