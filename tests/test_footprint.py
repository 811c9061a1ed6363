"""Footprint: what the package loads, and what a run keeps in memory.

The package loads neither scipy nor networkx.  Nothing in it uses
scipy, and networkx serves only the two converters in
:mod:`repro.graphs.io`, which import it when called.  And a run on the
fast store keeps each
machine's knowledge once, in the store's masks: no protocol node holds
a ``set`` of what it knows.  Each case runs in a fresh interpreter,
because this test process has long since imported both and holds sets
of its own.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Makes any later ``import scipy`` / ``import networkx`` raise
#: ``ModuleNotFoundError``, as on an install without them.
BLOCK_OPTIONAL = 'import sys\nsys.modules["scipy"] = sys.modules["networkx"] = None\n'


def _run(code: str, block_optional: bool = False) -> str:
    """Run *code* in a fresh interpreter; assert it exits 0; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    prelude = BLOCK_OPTIONAL if block_optional else ""
    process = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    return process.stdout


def test_import_loads_neither_scipy_nor_networkx():
    out = _run(
        """
        import sys
        import repro, repro.cli, repro.live.cluster
        print(sorted(m for m in ("scipy", "networkx") if m in sys.modules))
        """
    )
    assert out.strip() == "[]"


def test_discovery_runs_without_scipy_and_networkx():
    out = _run(
        """
        import repro
        result = repro.discover(repro.random_k_out(64, seed=1, k=3), "sublog", seed=1)
        print(result.completed)
        """,
        block_optional=True,
    )
    assert out.strip() == "True"


def test_cli_run_without_scipy_and_networkx():
    out = _run(
        """
        import runpy
        sys.argv = ["repro", "run", "--algorithm", "sublog", "--n", "64"]
        runpy.run_module("repro", run_name="__main__")
        """,
        block_optional=True,
    )
    assert "completed : True" in out


def test_fast_store_run_keeps_no_knowledge_sets():
    n = 256
    out = _run(
        f"""
        import gc
        from repro.algorithms.registry import get_algorithm
        from repro.graphs import make_topology
        from repro.sim.engine import SynchronousEngine
        engine = SynchronousEngine(
            make_topology("kout", {n}, seed=1),
            get_algorithm("sublog").node_factory(),
            seed=1,
            backend="fast",
        )
        assert engine.run().completed
        print(sum(type(node.known) is set for node in engine.nodes.values()))
        print(sum(len(obj) for obj in gc.get_objects() if type(obj) is set))
        """
    )
    nodes_with_sets, ids_in_sets = map(int, out.split())
    assert nodes_with_sets == 0
    # Complete knowledge held in per-node sets would be n * n ids; what
    # remains is protocol state (rosters, pools, contacts).
    assert ids_in_sets < n * n // 4
