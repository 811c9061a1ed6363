"""End-to-end discovery benchmark: run one workload for a time budget.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim-sublog-enforced --seed 1 --seconds 55 --trace 0

Every measurement happens in fresh worker processes (``worker.py``);
this script imports nothing from the program.  A worker imports
``repro`` once, makes one cold discovery run and then warm ones while
its budget lasts, repeating the workload's ``inputs`` seeds ``1000 *
seed``, ``1000 * seed + 1``, ... in turn, so one ``--seed`` always
covers the same inputs in the same order.

* ``--trace 0`` gives one worker the budget minus ``PROBE_RESERVE_S``,
  then starts set-up probes (processes that stop before round 1) until
  the budget is spent.  It prints the end-to-end metrics: the median
  ``setup_s`` over the worker and the probes, the worker's
  ``peak_rss_mb``, and for ``run_s`` and each query figure the best
  value over the warm repeats of each input, averaged over the inputs.
* ``--trace 1`` runs an untraced worker and then a traced one on the
  same seeds, half the budget each, and prints the per-layer metrics of
  the traced runs (medians, taken like the end-to-end metric they
  explain; counts from the first run, which repeat exactly for a seed),
  plus ``trace.overhead_pct``: the traced median warm ``run_s`` over
  the untraced one.  The spans go to
  ``.perfbench/<workload>-seed<seed>.spans.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer or an
incomplete run makes ``correct`` false and the exit code 1.  Without the
program's source (``src/repro``) next to this directory it exits 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from common import END_TO_END, INJECTIONS, PER_LAYER, SETUP_LAYERS, WORKLOADS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Seconds of a ``--trace 0`` budget kept for set-up probes.
PROBE_RESERVE_S = 8.0

#: Fewest set-up probes per ``--trace 0`` invocation.
MIN_PROBES = 2

#: Seconds one worker may take before it is killed and counted failed.
WORKER_TIMEOUT_S = 150.0


def run_worker(args, env: Dict, *options: str) -> Dict:
    command = [sys.executable, str(WORKER), "--workload", args.workload]
    command += ["--seed", str(1000 * args.seed), *options]
    if args.n:
        command += ["--n", str(args.n)]
    if args.inject:
        command += ["--inject", args.inject]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker timed out after {WORKER_TIMEOUT_S:.0f} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"crashed": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def warm(worker: Dict) -> List[Dict]:
    """Every run but the worker's first (cold) one."""
    return worker["runs"][1:]


def best_per_input(runs: List[Dict], value, best=min) -> float:
    """The best *value* over each input's repeats, averaged over the inputs."""
    repeats: Dict[int, List[float]] = {}
    for run in runs:
        repeats.setdefault(run["seed"], []).append(value(run))
    return statistics.mean(best(values) for values in repeats.values())


def end_to_end(worker: Dict, probes: List[Dict]) -> Dict[str, float]:
    # The host's speed swings by up to ~1.6x over windows of seconds to
    # minutes (other tenants on the shared cores), and a run or a query
    # phase that overlaps a slow window is slowed by it whatever the code
    # does.  So each timing is the best of the repeats of one input: the
    # program's speed when the host lets it run, which a slow window can
    # only hide if it covers every repeat.
    runs = warm(worker)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in [worker] + probes),
        "run_s": best_per_input(runs, lambda run: run["run_s"]),
        "peak_rss_mb": worker["peak_rss_mb"],
        "query_p50_ms": best_per_input(runs, lambda run: percentile(run["query_ms"], 0.50)),
        "query_p90_ms": best_per_input(runs, lambda run: percentile(run["query_ms"], 0.90)),
        "query_per_s": best_per_input(
            runs, lambda run: len(run["query_ms"]) / run["query_s"], best=max
        ),
    }


def per_layer(traced: Dict, plain: Dict) -> Dict[str, float]:
    layers: Dict[str, float] = dict.fromkeys(PER_LAYER, 0)
    cold = traced["runs"][0]["layers"]
    runs = [run["layers"] for run in warm(traced)]
    for name in cold:
        values = [cold[name]] if name in SETUP_LAYERS else [run[name] for run in runs]
        if isinstance(values[0], list):  # latency samples: pool, then percentiles
            pooled = [ms for sample in values for ms in sample]
            layers[f"{name}.p50"] = percentile(pooled, 0.50)
            layers[f"{name}.p99"] = percentile(pooled, 0.99)
        elif PER_LAYER[name] == "count":
            layers[name] = cold[name]  # the first run's seed: repeats exactly
        else:
            layers[name] = statistics.median(values)
    layers["pkg.import_s"] = traced["import_s"]
    traced_run = statistics.median(run["run_s"] for run in warm(traced))
    plain_run = statistics.median(run["run_s"] for run in warm(plain))
    layers["trace.overhead_pct"] = 100.0 * (traced_run / plain_run - 1.0)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, help="override the workload's fleet size (tests)")
    parser.add_argument("--inject", choices=INJECTIONS, help="force a failure (tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'repro'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    # Fixed string hashing: every process lays out its frame dicts and
    # name tables alike, so only the inputs differ between runs.
    env["PYTHONHASHSEED"] = "0"
    # Keep freed heap in the process: by default glibc hands it back to
    # the kernel after every run, and the next run faults the pages in
    # again (~200k faults, ~0.3 s a run at n = 2048, and their cost
    # moves with the host's memory pressure).  The cold run still pays.
    env["MALLOC_TRIM_THRESHOLD_"] = str(1 << 40)
    env["MALLOC_MMAP_THRESHOLD_"] = str(1 << 25)

    started = perf_counter()
    workers: List[Dict] = []
    probes: List[Dict] = []
    if args.trace:
        spans = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        spans.parent.mkdir(exist_ok=True)
        spans.write_text("")
        half = str(args.seconds / 2)
        workers.append(run_worker(args, env, "--budget", half))
        if "crashed" not in workers[0]:
            traced = ("--trace", "--spans", str(spans))
            workers.append(run_worker(args, env, "--budget", half, *traced))
    else:
        workers.append(run_worker(args, env, "--budget", str(args.seconds - PROBE_RESERVE_S)))
        while not any("crashed" in r for r in workers + probes):
            begun = perf_counter()
            probes.append(run_worker(args, env, "--setup-only"))
            now = perf_counter()
            if len(probes) >= MIN_PROBES and now - started + (now - begun) > args.seconds:
                break

    crashed = [r["crashed"] for r in workers + probes if "crashed" in r]
    for reason in crashed:
        print(f"error: {reason}", file=sys.stderr)
    done = [worker for worker in workers if "crashed" not in worker]
    attempted = sum(worker["attempted"] for worker in done) + len(crashed)
    failed = sum(worker["failed"] for worker in done) + len(crashed)
    for worker in done:
        for error in worker["errors"]:
            print(f"wrong answer: {error}", file=sys.stderr)
    if crashed:
        metrics: Dict[str, float] = {}
    elif args.trace:
        metrics = per_layer(traced=workers[1], plain=workers[0])
    else:
        metrics = end_to_end(workers[0], probes)
    units = PER_LAYER if args.trace else END_TO_END

    runs = sum(len(worker["runs"]) for worker in done)
    print(
        f"{args.workload} seed={args.seed} runs={runs} probes={len(probes)} "
        f"wall={perf_counter() - started:.1f}s",
        file=sys.stderr,
    )
    if not crashed and not args.trace:
        spread = {
            "setup_s": [p["setup_s"] for p in workers + probes],
            "run_s": [run["run_s"] for run in warm(workers[0])],
        }
        for name, values in spread.items():
            print(f"  {name}: " + " ".join(f"{v:.3f}" for v in sorted(values)), file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
