"""Connection robustness: garbage frames, dying siblings, clean teardown.

A live node's server must survive anything a broken or hostile client
throws at it — random bytes, truncated frames, oversized headers,
structurally valid frames missing protocol keys — without hanging, and
without the handler dying silently (every rejection leaves a structured
log line).  Cluster orchestration must fail fast, not strand siblings,
and teardown must actually release transports.
"""

from __future__ import annotations

import asyncio
import logging
import random

import pytest

from repro.live.cluster import ClusterSpec, LiveCluster
from repro.live.wire import HEADER, MAX_FRAME_BYTES, encode_frame, read_frame


async def _serving_cluster(n=4, seed=1, algorithm="flooding"):
    cluster = LiveCluster(ClusterSpec(n=n, seed=seed, algorithm=algorithm))
    await cluster.start()
    report = await asyncio.wait_for(cluster.run_discovery(), 60)
    assert report.complete
    return cluster


async def _assert_still_serving(host, port):
    """A fresh connection must get a status reply — the server survived."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(encode_frame({"t": "status"}))
    await writer.drain()
    reply = await asyncio.wait_for(read_frame(reader), 5)
    writer.close()
    await writer.wait_closed()
    assert reply is not None and reply["t"] == "status_reply"


async def _throw_bytes(host, port, blob: bytes):
    """Deliver raw bytes and drop the connection, swallowing resets."""
    try:
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(blob)
        await writer.drain()
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


#: Structurally valid JSON frames that violate the protocol contract.
MALFORMED_FRAMES = [
    {"t": "ptrs", "from": 0, "msgs": []},  # missing round
    {"t": "ptrs", "round": "x", "from": 0, "msgs": []},  # non-int round
    {"t": "ptrs", "round": 0, "from": 0, "msgs": []},  # round < 1
    {"t": "ptrs", "round": 1, "from": 0},  # missing msgs
    {"t": "ptrs", "round": 1, "from": 0, "msgs": [{"bogus": 1}]},  # bad message
    {"t": "eor", "round": 1, "from": 0},  # missing complete
    {"t": "eor", "round": 1, "from": None, "complete": True},  # bad sender
    {"t": "eor", "round": True, "from": 0, "complete": True},  # bool round
    {"t": "succ", "of": "not-an-id"},  # query with uncomparable operand
    {"t": "no-such-frame-kind"},  # unknown kind
]


class TestGarbageFrames:
    def test_wire_fuzz_never_kills_or_hangs_the_server(self):
        async def scenario():
            cluster = await _serving_cluster()
            host, port = cluster.endpoints[0]
            try:
                rng = random.Random(0xBAD)
                # Raw garbage: random blobs, most of which parse as an
                # absurd length prefix or an undecodable body.
                for _ in range(20):
                    blob = rng.randbytes(rng.randrange(1, 64))
                    await _throw_bytes(host, port, blob)
                    await _assert_still_serving(host, port)
                # Oversized header: length prefix beyond the frame cap.
                await _throw_bytes(
                    host, port, HEADER.pack(MAX_FRAME_BYTES + 1) + b"x" * 16
                )
                await _assert_still_serving(host, port)
                # Truncated frame: header promises more than is sent.
                await _throw_bytes(host, port, HEADER.pack(512) + b'{"t":')
                await _assert_still_serving(host, port)
                # Valid JSON, wrong shape.
                body = b"[1,2,3]"
                await _throw_bytes(host, port, HEADER.pack(len(body)) + body)
                await _assert_still_serving(host, port)
                body = b'{"no_t_key":1}'
                await _throw_bytes(host, port, HEADER.pack(len(body)) + body)
                await _assert_still_serving(host, port)
                # Protocol-invalid frames (valid wire envelope).
                for frame in MALFORMED_FRAMES:
                    await _throw_bytes(host, port, encode_frame(frame))
                    await _assert_still_serving(host, port)
                # The abuse must not have perturbed the fleet's answers.
                for endpoint in cluster.endpoints:
                    await _assert_still_serving(*endpoint)
            finally:
                await cluster.close()

        asyncio.run(asyncio.wait_for(scenario(), 120))

    def test_protocol_errors_leave_a_log_trail(self, caplog):
        async def scenario():
            cluster = await _serving_cluster(n=2)
            host, port = cluster.endpoints[0]
            try:
                await _throw_bytes(
                    host, port, encode_frame({"t": "ptrs", "from": 0, "msgs": []})
                )
                await _assert_still_serving(host, port)
            finally:
                await cluster.close()

        with caplog.at_level(logging.WARNING, logger="repro.live.node"):
            asyncio.run(asyncio.wait_for(scenario(), 30))
        assert "protocol-error" in caplog.text
        assert "ptrs" in caplog.text


class TestClusterFailFast:
    def test_one_crashing_node_cancels_the_fleet(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=4, algorithm="flooding", seed=0))
            await cluster.start()

            async def explode(max_rounds, *, stop_on_closure=True):
                await asyncio.sleep(0.05)
                raise RuntimeError("node task died")

            cluster.nodes[2].run_discovery = explode
            try:
                with pytest.raises(RuntimeError, match="node task died"):
                    # Without sibling cancellation the other three nodes
                    # block in their marker waits and this times out.
                    await asyncio.wait_for(cluster.run_discovery(), 15)
            finally:
                await cluster.close()

        asyncio.run(scenario())

    def test_cancel_landing_with_a_frame_ends_the_marker_wait(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=4, algorithm="flooding", seed=0))
            me, peer = sorted(cluster.nodes)[:2]
            runtime = cluster.nodes[me]
            task = asyncio.create_task(runtime._wait_for_markers(1, [peer], 30.0))
            await asyncio.sleep(0.05)  # parked in its marker wait
            # A frame lands in the same tick as the fleet's cancellation:
            # the wait must end cancelled, not go back to waiting.
            runtime._progress.set()
            task.cancel()
            done, _ = await asyncio.wait({task}, timeout=1.0)
            assert task in done
            assert task.cancelled()

        asyncio.run(asyncio.wait_for(scenario(), 10))

    def test_close_is_exception_safe_per_node(self):
        async def scenario():
            cluster = LiveCluster(ClusterSpec(n=3, algorithm="flooding", seed=0))
            await cluster.start()

            async def bad_close():
                raise OSError("teardown hiccup")

            cluster.nodes[0].close = bad_close
            with pytest.raises(OSError, match="teardown hiccup"):
                await cluster.close()
            # The failure must not have skipped the siblings' teardown.
            assert cluster.nodes[1]._server is None
            assert cluster.nodes[2]._server is None

        asyncio.run(scenario())


class TestTeardown:
    def test_close_releases_transports(self):
        async def scenario():
            cluster = await _serving_cluster(n=4)
            await cluster.close()
            for runtime in cluster.nodes.values():
                assert runtime._server is None
                assert not runtime._writers
                assert not runtime._inbound
            # Idempotent: closing again must not raise.
            await cluster.close()

        asyncio.run(asyncio.wait_for(scenario(), 60))
