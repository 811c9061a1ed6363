"""Command-line interface: ``python -m repro`` / ``repro-discover``.

Sub-commands:

* ``list`` — show registered algorithms, topologies, and experiments.
* ``run`` — one discovery run, printing the complexity summary::

      python -m repro run --topology kout --n 512 --algorithm sublog

* ``experiment`` — regenerate an evaluation table/figure (or ``all``)::

      python -m repro experiment T1 --scale small
      python -m repro experiment all --scale full --out results/

* ``fuzz`` — run seeded adversarial schedules under the invariant
  oracle (see :mod:`repro.oracle`), shrinking any failure to a minimal
  replayable script::

      python -m repro fuzz --cases 50 --seed 7 --out fuzz.jsonl
      python -m repro fuzz --replay violation.json

* ``serve`` — host the protocol core in the live asyncio runtime: a
  TCP-loopback cluster of concurrent node tasks, optionally verified
  digest-for-digest against a seeded simulator run::

      python -m repro serve --n 8 --algorithm sublog --verify-digest
      python -m repro serve --n 8 --kill 3@3 --verify-digest  # fault injection

* ``loadgen`` — concurrent census/ring lookups against a live cluster
  (self-hosted, or ``--endpoints`` for one already running)::

      python -m repro loadgen --n 8 --requests 200 --concurrency 8
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from .algorithms.registry import ALGORITHMS, algorithm_names
from .bench.experiments import EXPERIMENTS, get_experiment
from .bench.seeds import SCALES, bench_scale
from .graphs.generators import TOPOLOGIES, make_topology
from .sim.engine import BACKENDS
from .sim.faults import FaultPlan
from .sim.transport import DELIVERY_MODELS, parse_delivery
from .workloads import workload_names


def _cmd_list(_: argparse.Namespace) -> int:
    print("algorithms:")
    for name in algorithm_names():
        print(f"  {name:12s} {ALGORITHMS[name].description}")
    print("topologies:")
    for name in sorted(TOPOLOGIES):
        print(f"  {name}")
    print("delivery models:")
    for name in sorted(DELIVERY_MODELS):
        print(f"  {name}")
    print("experiments:")
    for experiment_id, module in EXPERIMENTS.items():
        print(f"  {experiment_id:4s} {module.TITLE}")
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print(f"scales: {', '.join(SCALES)}")
    return 0


def _delivery_spec(spec: str) -> str:
    """argparse validator: check a --delivery spec early, keep the string."""
    try:
        parse_delivery(spec)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return spec


def _cmd_run(args: argparse.Namespace) -> int:
    from . import discover  # late import keeps --help fast
    from .analysis.convergence import curve_from_history
    from .sim.observers import KnowledgeSizeObserver
    from .sim.trace import TraceObserver

    graph = make_topology(args.topology, args.n, seed=args.seed, id_space=args.id_space)
    fault_plan = FaultPlan(loss_rate=args.loss, seed=args.seed) if args.loss else None
    hostile_delivery = bool(args.delivery) and args.delivery != "lockstep"
    params = {}
    if args.loss or hostile_delivery:
        params = dict(ALGORITHMS[args.algorithm].hostile_params)
    observers = []
    trace_observer = None
    size_observer = None
    if args.trace:
        trace_observer = TraceObserver()
        observers.append(trace_observer)
    if args.sparkline:
        size_observer = KnowledgeSizeObserver()
        observers.append(size_observer)
    started = time.perf_counter()
    result = discover(
        graph,
        algorithm=args.algorithm,
        seed=args.seed,
        goal=args.goal,
        fault_plan=fault_plan,
        delivery=args.delivery,
        observers=observers,
        backend=args.backend,
        profile=args.profile,
        **params,
    )
    elapsed = time.perf_counter() - started
    print(f"algorithm : {result.algorithm}")
    print(f"topology  : {args.topology} (n={args.n}, seed={args.seed})")
    print(f"goal      : {args.goal}")
    if args.delivery:
        print(f"delivery  : {args.delivery}")
    print(f"completed : {result.completed}")
    print(f"rounds    : {result.rounds}")
    print(f"messages  : {result.messages:,}")
    print(f"pointers  : {result.pointers:,}")
    print(f"bits      : {result.bits:,}")
    if result.dropped_messages:
        reasons = ", ".join(
            f"{reason}={count:,}"
            for reason, count in sorted(result.dropped_by_reason.items())
        )
        print(f"dropped   : {result.dropped_messages:,} ({reasons})")
    print(f"wall time : {elapsed:.2f}s")
    if args.profile:
        timings = result.extra.get("phase_timings", {})
        total = sum(timings.values()) or 1.0
        print("profile   : " + "  ".join(
            f"{phase}={seconds * 1e3:.1f}ms ({seconds / total:.0%})"
            for phase, seconds in timings.items()
        ))
    if size_observer is not None:
        curve = curve_from_history(size_observer.history, n=args.n)
        print(f"converge  : {curve.sparkline()}")
        stones = curve.milestones()
        print(
            "milestones: "
            + "  ".join(f"{name}={value}" for name, value in stones.items())
        )
    if trace_observer is not None:
        with open(args.trace, "w") as stream:
            count = trace_observer.write_jsonl(stream)
        print(f"trace     : {count:,} events -> {args.trace}")
    return 0 if result.completed else 1


def _print_failures(failures, prefix: str = "") -> None:
    """One stderr header, then one line per cell that failed for good."""
    print(f"error: {prefix}{len(failures)} cell(s) failed:", file=sys.stderr)
    for failure in failures:
        print(
            f"  {failure.case.display} n={failure.case.n} "
            f"seed={failure.case.seed}: {failure.error_type}: "
            f"{failure.error_message} (after {failure.attempts} attempts)",
            file=sys.stderr,
        )


def _cmd_experiment(args: argparse.Namespace) -> int:
    import inspect

    from .bench.sweeprun import SweepError, SweepRunner

    scale = bench_scale(args.scale)
    if args.experiment.lower() == "all":
        ids = list(EXPERIMENTS)
    else:
        ids = [args.experiment.upper()]
    try:
        runner = SweepRunner(
            workers=args.workers,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            journal=args.journal,
            resume=args.resume,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for experiment_id in ids:
        module = get_experiment(experiment_id)
        started = time.perf_counter()
        # Drivers that run no sweep take only (scale).  The others get the
        # runner with a journal of their own, so `all` never shares one.
        kwargs = {}
        if "runner" in inspect.signature(module.run).parameters:
            kwargs["runner"] = runner.for_stage(experiment_id)
        try:
            report = module.run(scale, **kwargs)
        except SweepError as error:
            _print_failures(error.failures, f"{experiment_id}: ")
            failed += 1
            continue
        except (FileExistsError, ValueError) as error:
            if args.journal is None:
                raise  # not a refused or mismatched journal
            print(f"error: {error}", file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - started
        text = report.render()
        print(text)
        print(f"({experiment_id} took {elapsed:.1f}s at scale={scale.name})\n")
        if out_dir:
            (out_dir / f"{experiment_id}.txt").write_text(text)
    return 1 if failed else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .bench.runner import build_cases
    from .bench.store import save_results
    from .bench.sweeprun import SweepProgress, SweepRunner

    cases = build_cases(
        args.algorithms,
        args.topology,
        args.sizes,
        args.seeds,
        delivery=args.delivery,
    )

    def render(event: SweepProgress) -> None:
        line = event.format()
        if event.retried:
            line += f"  [retries: {event.retried}]"
        print(line, flush=True)

    started = time.perf_counter()
    try:
        runner = SweepRunner(
            workers=args.workers,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            journal=args.journal,
            resume=args.resume,
            progress=render if not args.quiet else None,
            backend=args.backend,
            metadata={
                "topology": args.topology,
                "sizes": args.sizes,
                "seeds": args.seeds,
                "algorithms": args.algorithms,
                "delivery": args.delivery,
                "backend": args.backend,
            },
        )
        report = runner.run(cases)
    except (FileExistsError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started
    count = save_results(
        report.results,
        args.out,
        metadata={
            "topology": args.topology,
            "sizes": args.sizes,
            "seeds": args.seeds,
            "algorithms": args.algorithms,
            "workers": args.workers,
            "delivery": args.delivery,
            "backend": args.backend,
        },
    )
    summary = f"saved {count} results to {args.out} in {elapsed:.1f}s"
    if report.resumed:
        summary += f" ({report.resumed} resumed from journal)"
    if report.retried:
        summary += f" ({report.retried} retries)"
    print(summary)
    incomplete = sum(1 for result in report.results if not result.completed)
    if incomplete:
        print(f"warning: {incomplete} runs hit the round cap")
    if report.failures:
        _print_failures(report.failures)
        return 1
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json

    from .oracle.fuzzer import FuzzCase, fuzz, replay
    from .oracle.invariants import OracleViolation
    from .oracle.script import ScheduleScript

    if args.replay:
        text = Path(args.replay).read_text() if Path(args.replay).is_file() else args.replay
        script = ScheduleScript.from_dict(json.loads(text))
        print(f"replaying {script.describe()}")
        try:
            result = replay(script)
        except OracleViolation as violation:
            print(f"violation reproduced: {violation}")
            return 1
        print(
            f"clean: completed={result.completed} rounds={result.rounds} "
            f"messages={result.messages:,}"
        )
        return 0

    def render(case: FuzzCase) -> None:
        print(f"case {case.index:>4}  {case.script.describe()}  -> {case.status}")

    started = time.perf_counter()
    report = fuzz(
        cases=args.cases,
        seed=args.seed,
        algorithms=args.algorithms,
        max_n=args.max_n,
        differential=not args.no_differential,
        reduction=not args.no_differential,
        shrink_failures=not args.no_shrink,
        time_budget=args.time_budget,
        report_path=args.out,
        progress=None if args.quiet else render,
    )
    elapsed = time.perf_counter() - started
    summary = (
        f"fuzz: {len(report.cases)} cases, {len(report.failures)} "
        f"failure(s) in {elapsed:.1f}s (seed={args.seed})"
    )
    if args.out:
        summary += f" -> {args.out}"
    print(summary)
    for case in report.failures:
        print(f"\n[{case.status}] case {case.index}: {case.detail}", file=sys.stderr)
        reproduction = case.shrunk if case.shrunk is not None else case.script
        print(f"  replay: {reproduction.to_json()}", file=sys.stderr)
    return 1 if report.failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .live.cluster import ClusterSpec, LiveCluster, reference_digest
    from .live.wire import encode_frame, read_frame
    from .sim.faults import parse_kill_specs

    try:
        crash_rounds = parse_kill_specs(args.kill)
        restart = {int(piece) for piece in args.restart.split(",") if piece.strip()}
        # Same convention as `repro run --loss`: faults auto-enable the
        # algorithm's registered hostile hardening (e.g. the sublog family's
        # resilient knobs — plain sublog's assignment structure does not
        # heal around a crashed member).
        params = dict(ALGORITHMS[args.algorithm].hostile_params) if crash_rounds else {}
        spec = ClusterSpec(
            n=args.n,
            topology=args.topology,
            algorithm=args.algorithm,
            seed=args.seed,
            rounds=args.rounds,
            max_rounds=args.max_rounds,
            params=params,
            crash_rounds=crash_rounds,
            restart=tuple(sorted(restart)),
            marker_timeout=args.marker_timeout,
        )
        cluster = LiveCluster(spec)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def drive():
        await cluster.start()
        try:
            report = await cluster.run_discovery()
            # Prove revived endpoints actually serve: query each one's
            # status over a fresh TCP connection before teardown.
            restarted = []
            for node_id in spec.restart:
                runtime = cluster.nodes[node_id]
                if not runtime.restarted:
                    continue  # its kill was scheduled past the last round
                reader, writer = await asyncio.open_connection(runtime.host, runtime.port)
                writer.write(encode_frame({"t": "status"}))
                await writer.drain()
                restarted.append(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
            return report, restarted
        finally:
            await cluster.close()

    started = time.perf_counter()
    report, restarted = asyncio.run(drive())
    elapsed = time.perf_counter() - started
    print(f"algorithm : {report.algorithm}")
    print(f"cluster   : n={report.n} seed={report.seed} (loopback TCP)")
    if crash_rounds:
        kills = ", ".join(f"{node}@{crash_rounds[node]}" for node in sorted(crash_rounds))
        print(f"faults    : kill {kills}")
        print(f"survivors : {len(report.survivors)}/{report.n} {list(report.survivors)}")
    print(f"complete  : {report.complete}")
    print(f"rounds    : {report.rounds}")
    print(f"messages  : {report.messages:,}")
    scope = " (survivors)" if crash_rounds else ""
    print(f"digest    : {report.digest}{scope}")
    print(f"wall time : {elapsed:.2f}s")
    for status in restarted:
        print(
            f"restarted : node {status['from']} serving again "
            f"(crashed at round {status['crashed_at']}, service plane only)"
        )
    if args.verify_digest:
        expected, sim_rounds = reference_digest(spec)
        verdict = "MATCH" if expected == report.digest else "MISMATCH"
        print(f"sim digest: {expected} (rounds={sim_rounds}) -> {verdict}")
        if expected != report.digest:
            return 1
    return 0 if (report.complete or args.rounds is not None) else 1


def _workload_param(spec: str) -> tuple:
    """argparse validator: ``key=value`` with value coerced int>float>str."""
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {spec!r}")
    value: object = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            continue
    return key, value


def _cmd_workload(args: argparse.Namespace) -> int:
    from .workloads import make_workload, run_trace_workload, save_trace

    params = dict(args.param or ())
    try:
        trace = make_workload(args.generator, args.n, seed=args.seed, **params)
    except (TypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    lookups = len(trace.events_of("lookup"))
    crashes = len(trace.events_of("crash"))
    edges = len(trace.events_of("edge"))
    print(f"trace     : {trace.generator} n={trace.n} seed={trace.seed}")
    print(f"events    : {len(trace)} ({lookups} lookup, {crashes} crash, "
          f"{edges} edge) over {trace.horizon} rounds")
    print(f"params    : {json.dumps(trace.params, sort_keys=True)}")
    print(f"digest    : {trace.digest()}")
    if args.out:
        save_trace(trace, Path(args.out))
        print(f"saved     : {args.out}")
    if args.replay:
        report = run_trace_workload(
            trace, args.replay, seed=args.seed, enforce_legality=False
        )
        stats = report.lookups
        print(f"replay    : {args.replay} "
              f"{'completed' if report.result.completed else 'DID NOT complete'} "
              f"in {report.result.rounds} rounds "
              f"({report.result.messages} messages)")
        if stats["requests"]:
            print(f"service   : {100.0 * report.served_at_arrival_fraction:.0f}% "
                  f"served at arrival, mean delay "
                  f"{stats['mean_delay']:.1f} rounds, "
                  f"p95 {stats['p95_delay']:.0f}")
        print(f"digest    : {report.digest} (engine knowledge)")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .live.cluster import ClusterSpec, LiveCluster
    from .live.loadgen import run_loadgen

    trace = None
    if args.trace:
        from .workloads import load_trace

        trace = load_trace(Path(args.trace))
        if not args.endpoints and args.n != trace.n:
            args.n = trace.n

    async def drive() -> int:
        if args.endpoints:
            endpoints = []
            for spec in args.endpoints.split(","):
                host, _, port = spec.strip().rpartition(":")
                endpoints.append((host or "127.0.0.1", int(port)))
            cluster = None
        else:
            cluster = LiveCluster(
                ClusterSpec(
                    n=args.n,
                    topology=args.topology,
                    algorithm=args.algorithm,
                    seed=args.seed,
                )
            )
            await cluster.start()
            report = await cluster.run_discovery()
            if not report.complete:
                print("error: discovery did not reach closure", file=sys.stderr)
                await cluster.close()
                return 1
            print(f"cluster   : n={report.n} closed in {report.rounds} rounds")
            endpoints = cluster.endpoints
        try:
            result = await run_loadgen(
                endpoints,
                requests=args.requests,
                concurrency=args.concurrency,
                seed=args.seed,
                trace=trace,
            )
        finally:
            if cluster is not None:
                await cluster.close()
        if trace is not None:
            print(f"trace     : {trace.generator} seed={trace.seed} "
                  f"({result.requests} lookup events)")
        print(f"requests  : {result.requests} ({args.concurrency} workers)")
        print(f"errors    : {result.errors}")
        consistency = (
            "not-sampled"
            if result.census_consistent is None
            else str(result.census_consistent)
        )
        print(f"census    : leader={result.leader} count={result.count} "
              f"consistent={consistency} samples={result.census_samples}")
        print(f"ring      : valid={result.ring_valid}")
        overall = result.percentiles()
        print(f"latency   : p50={overall['p50']:.2f}ms "
              f"p95={overall['p95']:.2f}ms p99={overall['p99']:.2f}ms")
        for worker, stats in result.worker_percentiles().items():
            print(f"  worker {worker:2d}: {int(stats['requests']):4d} req "
                  f"p50={stats['p50']:.2f}ms p95={stats['p95']:.2f}ms "
                  f"p99={stats['p99']:.2f}ms")
        for decile, stats in result.decile_percentiles().items():
            print(f"  decile {decile}: {int(stats['requests']):4d} req "
                  f"p50={stats['p50']:.2f}ms p95={stats['p95']:.2f}ms "
                  f"p99={stats['p99']:.2f}ms")
        print(f"duration  : {result.duration_s:.2f}s")
        return 0 if result.ok else 1

    return asyncio.run(drive())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Distributed Resource Discovery in "
            "Sub-Logarithmic Time' (Haeupler & Malkhi, PODC 2015)"
        ),
    )
    from . import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser("list", help="list algorithms/topologies/experiments")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = sub.add_parser("run", help="run one discovery")
    run_parser.add_argument("--algorithm", default="sublog", choices=algorithm_names())
    run_parser.add_argument("--topology", default="kout", choices=sorted(TOPOLOGIES))
    run_parser.add_argument("--n", type=int, default=256)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--goal", default="strong", choices=("strong", "weak", "strong_alive")
    )
    run_parser.add_argument("--loss", type=float, default=0.0, help="message loss rate")
    run_parser.add_argument(
        "--delivery",
        type=_delivery_spec,
        default=None,
        metavar="SPEC",
        help="delivery model: lockstep, jitter:J, adversarial[:D], "
        "perlink[:S], or partition:A-B",
    )
    run_parser.add_argument("--id-space", default="dense", choices=("dense", "random"))
    run_parser.add_argument(
        "--trace", default=None, metavar="FILE", help="write a JSONL message trace"
    )
    run_parser.add_argument(
        "--sparkline",
        action="store_true",
        help="print the convergence sparkline and milestones",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-phase engine timings (protocol/dispatch/deliver/observers)",
    )
    run_parser.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="engine backend: legacy (reference per-id sets) or fast "
        "(Python-int bitmasks, the default)",
    )
    run_parser.set_defaults(handler=_cmd_run)

    experiment_parser = sub.add_parser("experiment", help="regenerate a table/figure")
    experiment_parser.add_argument(
        "experiment", help=f"experiment id ({', '.join(EXPERIMENTS)}) or 'all'"
    )
    experiment_parser.add_argument("--scale", default=None, choices=tuple(SCALES))
    experiment_parser.add_argument("--out", default=None, help="directory for .txt reports")
    experiment_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the sweeps of T1, T2, F1 and F3 out over N worker processes",
    )
    experiment_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing sweep cell (T1, T2, F1, F3) up to N times",
    )
    experiment_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per sweep cell attempt (T1, T2, F1, F3)",
    )
    experiment_parser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="journal completed cells of T1, T2, F1, F3 and T9 to one "
        "<stem>.<ID>.jsonl per experiment next to FILE (F3 and T9 fork "
        "<stem>.<ID>.<stage>.jsonl per stage)",
    )
    experiment_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in the --journal files "
        "(requires --journal)",
    )
    experiment_parser.set_defaults(handler=_cmd_experiment)

    sweep_parser = sub.add_parser(
        "sweep", help="run an algorithm x size matrix and save JSON results"
    )
    sweep_parser.add_argument(
        "--algorithms", nargs="+", default=["sublog", "namedropper"],
        choices=algorithm_names(),
    )
    sweep_parser.add_argument("--topology", default="kout", choices=sorted(TOPOLOGIES))
    sweep_parser.add_argument("--sizes", nargs="+", type=int, default=[64, 128, 256])
    sweep_parser.add_argument("--seeds", nargs="+", type=int, default=[11, 23, 37])
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan the sweep out over N worker processes (results stay "
        "deterministic and ordered)",
    )
    sweep_parser.add_argument(
        "--delivery",
        type=_delivery_spec,
        default=None,
        metavar="SPEC",
        help="delivery model applied to every cell (see 'run --delivery')",
    )
    sweep_parser.add_argument("--out", required=True, help="JSON results file")
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failing cell up to N times (seed-deterministic backoff)",
    )
    sweep_parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per cell attempt; a cell over budget "
        "counts as failed (and retries, if --retries)",
    )
    sweep_parser.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="append completed cells to a JSONL journal as the sweep "
        "runs, so an interrupted sweep can be resumed",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip cells already recorded in --journal (requires "
        "--journal; failing if the journal belongs to a different case "
        "matrix)",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )
    sweep_parser.add_argument(
        "--backend",
        default=None,
        choices=BACKENDS,
        help="pin every cell to one engine backend (default: fast)",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="fuzz seeded adversarial schedules under the invariant oracle",
    )
    fuzz_parser.add_argument(
        "--cases", type=int, default=50, help="number of fuzz cases to run"
    )
    fuzz_parser.add_argument("--seed", type=int, default=0, help="fuzz master seed")
    fuzz_parser.add_argument(
        "--algorithms",
        nargs="+",
        default=None,
        choices=algorithm_names(),
        help="restrict fuzzing to these algorithms (default: all registered)",
    )
    fuzz_parser.add_argument(
        "--max-n", type=int, default=24, help="largest fuzzed machine count"
    )
    fuzz_parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop starting new cases after this much wall clock",
    )
    fuzz_parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="append a JSONL report (manifest + one record per case)",
    )
    fuzz_parser.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the fast-vs-legacy and lockstep-reduction diffs",
    )
    fuzz_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failing scripts as generated, without minimizing",
    )
    fuzz_parser.add_argument(
        "--replay",
        default=None,
        metavar="SCRIPT",
        help="replay one script (a JSON file or literal JSON) under the "
        "strict oracle instead of fuzzing",
    )
    fuzz_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-case progress lines"
    )
    fuzz_parser.set_defaults(handler=_cmd_fuzz)

    serve_parser = sub.add_parser(
        "serve",
        help="run a live TCP-loopback cluster of protocol nodes to closure",
    )
    serve_parser.add_argument("--algorithm", default="sublog", choices=algorithm_names())
    serve_parser.add_argument("--topology", default="kout", choices=sorted(TOPOLOGIES))
    serve_parser.add_argument("--n", type=int, default=8)
    serve_parser.add_argument("--seed", type=int, default=0)
    serve_parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="run exactly this many rounds (disables closure stopping; "
        "the strict mid-run digest comparison)",
    )
    serve_parser.add_argument(
        "--max-rounds", type=int, default=None, help="round budget override"
    )
    serve_parser.add_argument(
        "--verify-digest",
        action="store_true",
        help="run the same (config, seed) through the simulator and "
        "require byte-identical knowledge digests",
    )
    serve_parser.add_argument(
        "--kill",
        action="append",
        default=[],
        metavar="ID@ROUND",
        help="fault injection: kill node ID at the start of round ROUND "
        "(repeatable, or comma-separated); with --verify-digest the "
        "survivors are checked against the FaultInjector prediction",
    )
    serve_parser.add_argument(
        "--restart",
        default="",
        metavar="IDS",
        help="comma-separated killed node ids to revive after the run "
        "(service plane only: queries answered from frozen knowledge)",
    )
    serve_parser.add_argument(
        "--marker-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-round marker-wait deadline before a silent peer is "
        "suspected (default: derived from the round budget; 0 waits forever)",
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    loadgen_parser = sub.add_parser(
        "loadgen",
        help="drive concurrent census/overlay lookups against a live cluster",
    )
    loadgen_parser.add_argument(
        "--endpoints",
        default=None,
        metavar="HOST:PORT,...",
        help="target an already-running cluster instead of self-hosting one",
    )
    loadgen_parser.add_argument(
        "--algorithm", default="sublog", choices=algorithm_names()
    )
    loadgen_parser.add_argument("--topology", default="kout", choices=sorted(TOPOLOGIES))
    loadgen_parser.add_argument("--n", type=int, default=8)
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument("--requests", type=int, default=100)
    loadgen_parser.add_argument("--concurrency", type=int, default=8)
    loadgen_parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay a saved workload trace (see 'repro workload'): issue "
        "exactly its lookup demand and report latency percentiles split "
        "by popularity decile; self-hosted clusters size to the trace",
    )
    loadgen_parser.set_defaults(handler=_cmd_loadgen)

    workload_parser = sub.add_parser(
        "workload",
        help="generate a seeded, replayable demand trace (JSONL)",
    )
    workload_parser.add_argument(
        "--generator", default="zipf", choices=workload_names()
    )
    workload_parser.add_argument("--n", type=int, default=256)
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.add_argument(
        "--param",
        action="append",
        type=_workload_param,
        metavar="KEY=VALUE",
        help="generator parameter override (repeatable), e.g. "
        "--param alpha=1.4 --param rounds=24",
    )
    workload_parser.add_argument(
        "--out", default=None, metavar="FILE", help="write the trace JSONL here"
    )
    workload_parser.add_argument(
        "--replay",
        default=None,
        choices=algorithm_names(),
        metavar="ALGORITHM",
        help="also replay the trace through the simulator with this "
        "algorithm and print the service stats",
    )
    workload_parser.set_defaults(handler=_cmd_workload)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
