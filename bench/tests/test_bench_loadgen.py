"""The open-loop generator against stub asyncio servers that stall."""

import asyncio
import time

import numpy as np
import pytest

from bench.loadgen import (
    OpenLoopClient,
    PhaseResult,
    http_request,
    nearest_rank,
    run,
    tail_percentile,
)

RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}"


async def _stub(handler, writers):
    """Pipelined HTTP stub: ``handler(n)`` runs before answering request ``n``."""
    count = 0

    async def connection(reader, writer):
        nonlocal count
        writers.append(writer)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                await reader.readexactly(length)
                count += 1
                await handler(count)
                writer.write(RESPONSE)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass

    return await asyncio.start_server(connection, "127.0.0.1", 0)


def _drive(handler, rate=200.0, seconds=0.6, timeout_s=5.0, connections=1):
    async def main():
        writers = []
        server = await _stub(handler, writers)
        port = server.sockets[0].getsockname()[1]
        client = OpenLoopClient("127.0.0.1", port, connections, timeout_s)
        pool = [http_request("/v1/localize", b"{}", "application/json")]
        try:
            return await client.run_phase("p", pool, rate, seconds, np.random.default_rng(0))
        finally:
            await client.close()
            server.close()
            for writer in writers:
                writer.close()
                await writer.wait_closed()
            await server.wait_closed()

    return run(main())


def test_stall_is_charged_from_due_time_and_shows_as_lateness():
    async def handler(n):
        if n == 20:
            time.sleep(0.2)  # the whole process stalls, generator included

    phase = _drive(handler)
    assert phase.failed == 0
    due_at_stall = next(i for i, late in enumerate(phase.lateness) if late > 0.1)
    # Sent late, yet timed from when it was due: latency covers the lateness.
    assert phase.latencies[due_at_stall] >= phase.lateness[due_at_stall] > 0.1
    assert phase.summary()["late_tail_ms"] > 100.0
    # Blocks offered at one rate pool into one phase, in order.
    pooled = PhaseResult.merged("p", [phase, phase])
    assert pooled.latencies == phase.latencies * 2
    assert pooled.scheduled == 2 * phase.scheduled and pooled.failed == 0
    assert pooled.send_ratio() == pytest.approx(phase.send_ratio())


def test_requests_unanswered_past_the_timeout_fail():
    async def handler(n):
        if n == 10:
            await asyncio.sleep(1.0)

    phase = _drive(handler, timeout_s=0.2)
    assert phase.failed > 0
    assert phase.failed == sum(1 for lat in phase.latencies if lat is None)
    assert all(lat is not None for lat in phase.latencies[:9])
    assert phase.latencies[9] is None


def test_growing_backlog_is_flagged():
    async def slowing(n):
        await asyncio.sleep(0.0001 * n)  # service time grows past the arrival gap

    async def steady(n):
        pass

    assert _drive(slowing).backlog_growing()
    assert not _drive(steady).backlog_growing()


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99.0, 990)
    assert nearest_rank(values, 99.0) == 990
    assert tail_percentile(list(range(1, 10001))) == (99.0, 9900)  # capped at p99
    assert tail_percentile(list(range(1, 101))) == (90.0, 90)
    assert nearest_rank(list(range(1, 101)), 90.0) == 90
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)
    ten = list(range(10))
    assert tail_percentile(ten) == (100.0, 9)
