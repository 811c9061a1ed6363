"""Discovery runs of one workload, in a fresh process.

Usage (normally spawned by ``run.py``, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py --workload sim-sublog-enforced --seed 7 --budget 20 [--trace]

The process imports ``repro`` once and then makes discovery runs while
the next one still fits in ``--budget`` seconds (at least ``MIN_RUNS``),
calling ``gc.collect()`` between runs (never inside one).  The runs take
the workload's ``inputs`` seeds ``seed``, ``seed + 1``, ... in turn, so
each input is repeated several times.  The first run is the cold one: it
follows the import, grows the heap, and its set-up and peak RSS are the
process's.  The later runs are warm.  With ``--setup-only`` the process
stops before round 1 and reports only its set-up time.

Each run has three phases, timed separately:

1. **setup** — the topology, and engine construction (simulator) or
   cluster start (live host), up to round 1;
2. **run** — round 1 to the goal; the peak RSS is read right after it;
3. **queries** — a closed loop of lookups against the discovered state.
   On the live host a separate client process (``client.py``) sends
   alternating ``census`` and ``succ`` requests over two TCP
   connections; in the simulator each query reads one node's census and
   one successor from ``engine.knowledge`` in process, building the ring
   with ``repro.apps.overlay.ring_successors``.

Afterwards every answer is checked: the run reached its goal, its
knowledge digest equals the expected one, every ``census`` names the
smallest id and counts the whole fleet, and every ``succ`` matches the
ring computed from the roster.  The process prints one JSON record as
its last line of output.  With ``--trace`` it also wraps the public
functions of each layer (see ``spans.py``) and reports per-layer numbers
for every run.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import random
import resource
import sys
from contextlib import ExitStack
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from common import INJECTIONS, WORKLOADS, census_ok, ring_map, succ_ok
from spans import Tracer, patch

CLIENT = Path(__file__).resolve().with_name("client.py")

#: Seconds the live host waits on its query client before giving up.
CLIENT_TIMEOUT_S = 60.0

#: Runs per worker: one cold, at least one warm, and a cap.
MIN_RUNS = 2
MAX_RUNS = 60


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Operations attempted and failed in one process, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


# -- simulator ----------------------------------------------------------------------


@lru_cache(maxsize=1)
def complete_digest(roster: tuple) -> str:
    """Knowledge digest of the goal state: every node knows every id."""
    from repro.graphs.knowledge import digest_knowledge

    return digest_knowledge({node: roster for node in roster})


def setup_sim(spec: Dict, seed: int, tracer: Tracer, traced: bool):
    """Topology and engine, up to round 1: ``(graph, engine, algorithm)``."""
    from repro.algorithms.registry import get_algorithm
    from repro.graphs import make_topology
    from repro.sim.engine import SynchronousEngine

    algorithm = get_algorithm(spec["algorithm"])
    with tracer.span("graphs.make_topology"):
        graph = make_topology(spec["topology"], spec["n"], seed=seed)
    factory = algorithm.node_factory()
    if traced:
        factory = tracer.wrap_factory(factory)
    with tracer.span("sim.engine.init"):
        engine = SynchronousEngine(
            graph,
            factory,
            seed=seed,
            delivery=spec["delivery"],
            enforce_legality=spec["enforce_legality"],
            fast_path=True,
            profile=traced,
            algorithm_name=spec["algorithm"],
        )
    if traced:
        delivery = engine.delivery
        for method in ("submit", "submit_bulk", "pending"):
            setattr(delivery, method, tracer.timed("sim.transport", getattr(delivery, method)))
    return graph, engine, algorithm


def run_sim(
    spec: Dict, seed: int, tracer: Tracer, traced: bool, inject: str, outcome: Outcome
) -> Dict:
    from repro.apps.overlay import ring_successors

    n = spec["n"]
    graph, engine, algorithm = setup_sim(spec, seed, tracer, traced)
    cap = 1 if inject == "incomplete-run" else algorithm.round_cap(n)
    with tracer.span("sim.run"):
        result = engine.run(max_rounds=cap)
    rss = peak_rss_mb()

    roster = list(engine.node_ids)
    with tracer.span("graphs.knowledge_digest"):
        outcome.check(
            result.completed and engine.knowledge_digest() == complete_digest(tuple(roster)),
            f"seed {seed}: run incomplete or wrong digest "
            f"(completed={result.completed}, rounds={result.rounds})",
        )

    # Without enforcement the engine keeps only bitmasks and builds the
    # knowledge sets on first access (~0.3 s at n = 1024): a one-off that
    # would otherwise land in the first query and swamp ``query_per_s``.
    with tracer.span("sim.knowledge_sets"):
        engine.knowledge
    ring = ring_map(roster)
    rng = random.Random(f"queries-{seed}")
    latencies: List[float] = []
    with tracer.span("sim.queries"):
        # One query reads a node's census and one successor together: timed
        # apart, the cheap census and the sorting succ split the samples
        # into two modes and put the median on the edge between them.
        for index in range(spec["queries"]):
            node = roster[rng.randrange(n)]
            of = roster[rng.randrange(n)]
            started = perf_counter()
            known = engine.knowledge[node]
            census = {"leader": min(known), "count": len(known)}
            succ = {"of": of, "succ": ring_successors(list(known)).get(of)}
            latencies.append((perf_counter() - started) * 1e3)
            if inject == "corrupt-answer" and index == 0:
                census["leader"] = -1
            outcome.check(
                census_ok(census, roster) and succ_ok(succ, ring),
                f"query to {node}: census {census}, succ {succ}",
            )

    record = {
        "seed": seed,
        "setup_s": tracer.duration("graphs.make_topology") + tracer.duration("sim.engine.init"),
        "run_s": tracer.duration("sim.run"),
        "rss_mb": rss,
        "query_ms": latencies,
        "query_s": tracer.duration("sim.queries"),
        "counts": {
            "sim.rounds": result.rounds,
            "sim.messages": result.messages,
            "sim.pointers": result.pointers,
            "sim.bits": result.bits,
        },
    }
    if traced:
        phases = engine.phase_timings
        run_round_s = tracer.call_seconds("algorithms.run_round")
        initial = sum(len(set(graph.out(node)) | {node}) for node in roster)
        record["layers"] = {
            "graphs.make_topology_s": tracer.duration("graphs.make_topology"),
            "sim.engine.init_s": tracer.duration("sim.engine.init"),
            "algorithms.run_round_s": run_round_s,
            "algorithms.calls": tracer.call_count("algorithms.run_round"),
            "algorithms.messages": tracer.counts.get("algorithms.messages", 0),
            "algorithms.pointers": tracer.counts.get("algorithms.pointers", 0),
            "sim.legality_s": phases["protocol"] - run_round_s,
            "sim.dispatch_s": phases["dispatch"],
            "sim.deliver_s": phases["deliver"],
            "sim.transport_s": tracer.call_seconds("sim.transport"),
            "sim.useful_pointer_ratio": (n * n - initial) / max(1, result.pointers),
            "graphs.knowledge_digest_s": tracer.duration("graphs.knowledge_digest"),
            **record["counts"],
        }
    return record


# -- live host ------------------------------------------------------------------------


def split_cpus() -> List[str]:
    """Pin this process to one CPU; the client's CPU as its arguments.

    With the cluster and the client on one CPU, every query waits for a
    context switch, and where the scheduler puts the two processes
    flips the query latency between two regimes about 3x apart.  Given
    two CPUs, the cluster takes the first and the client the second.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return []
    os.sched_setaffinity(0, {cpus[0]})
    return [str(cpus[1])]


class QueryClient:
    """The query client process, shared by all of this worker's clusters."""

    def __init__(self, cpu: List[str]) -> None:
        self.cpu = cpu

    async def start(self) -> None:
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            str(CLIENT),
            *self.cpu,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 24,  # one reply line carries every latency sample
        )
        await self._reply()  # the client is ready once it has imported

    async def _reply(self) -> Dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), CLIENT_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"query client exited with {await self.proc.wait()}")
        return json.loads(line)

    async def query(self, request: Dict) -> Dict:
        self.proc.stdin.write(json.dumps(request).encode() + b"\n")
        await self.proc.stdin.drain()
        return await self._reply()

    async def close(self) -> None:
        self.proc.stdin.close()
        try:
            await asyncio.wait_for(self.proc.wait(), CLIENT_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


def trace_wire(tracer: Tracer, node_module) -> List:
    """Patches timing the live node's frame encoding and message codec."""

    def on_frame(args, frame: bytes) -> None:
        tracer.count(f"live.frames_out.{args[0].get('t')}")
        tracer.count("live.frames_out")
        tracer.count("live.bytes_out", len(frame))

    return [
        patch(
            node_module,
            "encode_frame",
            tracer.timed("live.wire.encode", node_module.encode_frame, on_frame),
        ),
        patch(
            node_module,
            "message_to_wire",
            tracer.timed("live.wire.decode", node_module.message_to_wire),
        ),
        patch(
            node_module,
            "wire_to_message",
            tracer.timed("live.wire.decode", node_module.wire_to_message),
        ),
    ]


async def run_live(
    spec: Dict,
    seed: int,
    tracer: Tracer,
    traced: bool,
    inject: str,
    outcome: Outcome,
    client: QueryClient,
) -> Dict:
    from repro.live import node as live_node
    from repro.live.cluster import ClusterSpec, LiveCluster, reference_digest

    class TracedSpec(ClusterSpec):
        def node_factory(self):
            return tracer.wrap_factory(super().node_factory())

    fields = dict(
        n=spec["n"],
        topology=spec["topology"],
        algorithm=spec["algorithm"],
        seed=seed,
        max_rounds=1 if inject == "incomplete-run" else None,
    )
    plain = ClusterSpec(**fields)
    with ExitStack() as patches:
        if traced:
            for wire_patch in trace_wire(tracer, live_node):
                patches.enter_context(wire_patch)
        with tracer.span("live.cluster.start"):
            cluster = LiveCluster(TracedSpec(**fields) if traced else plain)
            await cluster.start()
        try:
            with tracer.span("live.discover"):
                report = await cluster.run_discovery()
            rss = peak_rss_mb()
            discovery_counts = dict(tracer.counts)
            pointers = sum(
                runtime.context.metrics.total_pointers for runtime in cluster.nodes.values()
            )
            roster = sorted(cluster.graph.node_ids)
            with tracer.span("graphs.knowledge_digest"):
                expected, _ = reference_digest(plain)
                outcome.check(
                    report.complete and report.digest == expected,
                    f"seed {seed}: run incomplete or wrong digest "
                    f"(complete={report.complete}, rounds={report.rounds})",
                )
            request = {
                "endpoints": cluster.endpoints,
                "roster": roster,
                "queries": spec["queries"],
                "connections": spec["connections"],
                "seed": seed,
                "inject": inject,
            }
            with tracer.span("live.queries"):
                queries = await client.query(request)
        finally:
            await cluster.close()

    outcome.attempted += queries["attempted"]
    outcome.failed += queries["failed"]
    outcome.errors.extend(queries["errors"])
    discover_s = tracer.duration("live.discover")
    record = {
        "seed": seed,
        "setup_s": tracer.duration("live.cluster.start"),
        "run_s": discover_s,
        "rss_mb": rss,
        "query_ms": queries["census_ms"] + queries["succ_ms"],
        "query_s": queries["seconds"],
        "counts": {"live.rounds": report.rounds},
    }
    if traced:
        for name in ("live.frames_out", "live.bytes_out") + tuple(
            f"live.frames_out.{kind}" for kind in ("ptrs", "eor", "hello")
        ):
            record["counts"][name] = discovery_counts.get(name, 0)
        record["layers"] = {
            "live.cluster.start_s": tracer.duration("live.cluster.start"),
            "live.round_ms": discover_s * 1e3 / max(1, report.rounds),
            "live.loop_other_s": tracer.self_times()["live.discover"],
            "live.wire.encode_s": tracer.call_seconds("live.wire.encode", within="live.discover"),
            "live.wire.decode_s": tracer.call_seconds("live.wire.decode", within="live.discover"),
            "algorithms.run_round_s": tracer.call_seconds("algorithms.run_round"),
            "algorithms.calls": tracer.call_count("algorithms.run_round"),
            "algorithms.messages": discovery_counts.get("algorithms.messages", 0),
            "algorithms.pointers": discovery_counts.get("algorithms.pointers", 0),
            "live.frames_per_message": discovery_counts.get("live.frames_out", 0)
            / max(1, report.messages),
            "live.bytes_per_pointer": discovery_counts.get("live.bytes_out", 0) / max(1, pointers),
            "live.model_bytes_per_pointer": max(1, (spec["n"] - 1).bit_length()) / 8,
            "graphs.knowledge_digest_s": tracer.duration("graphs.knowledge_digest"),
            "client.census_ms": queries["census_ms"],
            "client.succ_ms": queries["succ_ms"],
            **record["counts"],
        }
    return record


async def start_live(spec: Dict, seed: int, tracer: Tracer) -> None:
    """Set-up only: build and start a cluster, then tear it down."""
    from repro.live.cluster import ClusterSpec, LiveCluster

    with tracer.span("live.cluster.start"):
        cluster = LiveCluster(
            ClusterSpec(
                n=spec["n"], topology=spec["topology"], algorithm=spec["algorithm"], seed=seed
            )
        )
        await cluster.start()
    await cluster.close()


class Runs:
    """The seeds of one worker's runs, and when to stop starting them."""

    def __init__(self, args, inputs: int, started: float) -> None:
        self.args = args
        self.inputs = inputs
        self.started = started
        self.tracers: List[Tracer] = []
        self.records: List[Dict] = []

    def __iter__(self):
        args = self.args
        mode = "traced" if args.trace else "plain"
        last = 0.0
        while len(self.records) < MIN_RUNS or (
            len(self.records) < MAX_RUNS
            and perf_counter() - self.started + last <= args.budget
        ):
            gc.collect()
            seed = args.seed + len(self.records) % self.inputs
            tracer = Tracer(f"{args.workload}/{seed}/{mode}")
            self.tracers.append(tracer)
            begun = perf_counter()
            yield seed, tracer
            last = perf_counter() - begun


async def live_runs(spec: Dict, runs: Runs, outcome: Outcome) -> None:
    client = QueryClient(split_cpus())
    await client.start()
    try:
        for seed, tracer in runs:
            args = runs.args
            runs.records.append(
                await run_live(spec, seed, tracer, args.trace, args.inject, outcome, client)
            )
    finally:
        await client.close()


def main(argv=None) -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0, help="seconds to keep starting runs")
    parser.add_argument("--setup-only", action="store_true", help="stop before round 1")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--n", type=int, help="override the workload's fleet size")
    parser.add_argument("--inject", choices=INJECTIONS, default="")
    parser.add_argument("--spans", help="append the spans (JSONL) to this file")
    args = parser.parse_args(argv)

    spec = dict(WORKLOADS[args.workload])
    if args.n:
        spec["n"] = args.n
    process = Tracer(f"{args.workload}/{args.seed}/process")
    with process.span("pkg.import"):
        import repro  # noqa: F401
    import_s = process.duration("pkg.import")

    if args.setup_only:
        if spec["kind"] == "sim":
            setup_sim(spec, args.seed, process, False)
            setup_s = process.duration("graphs.make_topology") + process.duration("sim.engine.init")
        else:
            asyncio.run(start_live(spec, args.seed, process))
            setup_s = process.duration("live.cluster.start")
        print(json.dumps({"import_s": import_s, "setup_s": import_s + setup_s}))
        return 0

    runs = Runs(args, spec["inputs"], started)
    outcome = Outcome()
    if spec["kind"] == "sim":
        for seed, tracer in runs:
            runs.records.append(run_sim(spec, seed, tracer, args.trace, args.inject, outcome))
    else:
        asyncio.run(live_runs(spec, runs, outcome))

    if args.trace and args.spans:
        with open(args.spans, "a", encoding="utf-8") as handle:
            for tracer in [process] + runs.tracers:
                tracer.dump(handle)
    record = {
        "import_s": import_s,
        "setup_s": import_s + runs.records[0]["setup_s"],
        "peak_rss_mb": runs.records[0]["rss_mb"],
        "runs": runs.records,
        **outcome.__dict__,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
