"""Closed-loop query client for a live cluster, in its own process.

Usage: ``python3 client.py [CPU]``; given a CPU number, the process runs
on that CPU only.  It prints ``{"ready": true}`` once imported, then
serves one JSON request per line of stdin until stdin closes::

    {"endpoints": [[host, port], ...], "roster": [ids], "queries": Q,
     "connections": C, "seed": S, "inject": ""}

For each request it opens C connections to C distinct seed-chosen
endpoints and, on each, sends its share of Q queries one at a time (the
next only after the reply), alternating ``census`` and ``succ`` with
seed-chosen targets.
Every reply is checked against the roster.  The answer is one JSON line:
per-kind latencies in ms, attempted/failed counts, and the wall time of
the query phase.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
from time import perf_counter
from typing import Dict, List

from common import census_ok, ring_map, succ_ok

from repro.live.wire import encode_frame, read_frame


async def drive(endpoint, count: int, roster: List[int], rng: random.Random, out: Dict) -> None:
    reader, writer = await asyncio.open_connection(*endpoint)
    ring = ring_map(roster)
    try:
        for index in range(count):
            if index % 2 == 0:
                kind, payload = "census", {"t": "census"}
            else:
                kind, payload = "succ", {"t": "succ", "of": roster[rng.randrange(len(roster))]}
            started = perf_counter()
            writer.write(encode_frame(payload))
            await writer.drain()
            reply = await read_frame(reader)
            out[f"{kind}_ms"].append((perf_counter() - started) * 1e3)
            if reply is None:
                raise ConnectionError(f"{endpoint} closed mid-query")
            if out.pop("corrupt", False):
                reply = dict(reply, leader=-1, succ=-1)
            ok = census_ok(reply, roster) if kind == "census" else succ_ok(reply, ring)
            out["attempted"] += 1
            if not ok:
                out["failed"] += 1
                if len(out["errors"]) < 5:
                    out["errors"].append(f"{kind} from {endpoint}: {reply}")
    finally:
        writer.close()
        await writer.wait_closed()


async def serve(request: Dict) -> Dict:
    rng = random.Random(f"client-{request['seed']}")
    endpoints = rng.sample([tuple(e) for e in request["endpoints"]], request["connections"])
    out: Dict = {"census_ms": [], "succ_ms": [], "attempted": 0, "failed": 0, "errors": []}
    if request["inject"] == "corrupt-answer":
        out["corrupt"] = True
    share, extra = divmod(request["queries"], len(endpoints))
    started = perf_counter()
    await asyncio.gather(
        *(
            drive(
                endpoint,
                share + (i < extra),
                request["roster"],
                random.Random(f"client-{request['seed']}-{i}"),
                out,
            )
            for i, endpoint in enumerate(endpoints)
        )
    )
    out["seconds"] = perf_counter() - started
    return out


def main() -> None:
    if len(sys.argv) > 1:
        os.sched_setaffinity(0, {int(sys.argv[1])})
    print(json.dumps({"ready": True}), flush=True)
    for line in iter(sys.stdin.readline, ""):
        print(json.dumps(asyncio.run(serve(json.loads(line)))), flush=True)


if __name__ == "__main__":
    main()
