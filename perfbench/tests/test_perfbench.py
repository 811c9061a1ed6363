"""The benchmark's own tests: tiny-n smokes of every workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` as the benchmark is driven for
real, as a subprocess, on a small fleet (n = 64 in the simulator, n = 8
live) with a one-second budget.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import END_TO_END, EXACT_COUNTS, PER_LAYER, WORKLOADS  # noqa: E402
from spans import Tracer  # noqa: E402

TINY_N = {"sim": 64, "live": 8}


def bench(workload: str, *extra: str, seed: int = 5, cwd: Path = ROOT, script: Path = BENCH):
    n = TINY_N[WORKLOADS[workload]["kind"]]
    command = [sys.executable, str(script / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", "1", "--n", str(n), *extra]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=cwd, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None, proc.stderr


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    code, result, stderr = bench(workload, "--trace", "0")
    assert code == 0, stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_prints_every_layer_and_repeats_counts(workload):
    first = bench(workload, "--trace", "1")
    second = bench(workload, "--trace", "1")
    for code, result, stderr in (first, second):
        assert code == 0, stderr
        assert result["correct"] is True
        assert {name: m["unit"] for name, m in result["metrics"].items()} == PER_LAYER
    metrics = [result["metrics"] for _, result, _ in (first, second)]
    host = WORKLOADS[workload]["kind"]
    for name in EXACT_COUNTS:
        assert metrics[0][name] == metrics[1][name]
        assert (metrics[0][name]["value"] > 0) == name.startswith(host), name
    assert metrics[0]["algorithms.calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("injection", ["corrupt-answer", "incomplete-run"])
def test_wrong_answers_count_as_failed(workload, injection):
    code, result, _ = bench(workload, "--trace", "0", "--inject", injection)
    assert code == 1
    assert result["correct"] is False
    assert 1 <= result["failed"] <= result["attempted"]


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result, stderr = bench(
        "sim-sublog-enforced", "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench"
    )
    assert code != 0
    assert result is None
    assert "no program source" in stderr


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert all(PER_LAYER[name] == "count" for name in EXACT_COUNTS)


def test_self_time_subtracts_child_spans_and_calls():
    tracer = Tracer("unit")
    work = tracer.timed("leaf", lambda: sum(range(20000)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            work()
        work()
    own = tracer.self_times()
    outer = tracer.duration("outer")
    inner = tracer.duration("inner")
    leaf = tracer.call_seconds("leaf")
    assert tracer.call_count("leaf") == 2
    assert own["outer"] == pytest.approx(outer - inner - tracer.call_seconds("leaf", "outer"))
    assert own["inner"] == pytest.approx(inner - tracer.call_seconds("leaf", "inner"))
    assert 0 <= own["outer"] + own["inner"] <= outer - leaf + 1e-9
