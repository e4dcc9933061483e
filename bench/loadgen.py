"""Open-loop HTTP load generator and the latency-percentile rule.

Arrivals follow a seeded Poisson schedule and are sent when due, whether or
not earlier requests have been answered, so a slow server builds a queue
instead of slowing the client down.  Each request is timed from its *due*
time to the last byte of its response: a stall also charges the requests
that were due while it lasted, and the generator's own lateness is
reported separately so an overloaded client cannot pass for a fast server.

Requests travel over a fixed set of pipelined HTTP/1.1 keep-alive
connections (arrival ``i`` goes to connection ``i % connections``), all
driven from one asyncio thread.  A request unanswered ``timeout_s`` after
it was due fails, and so does every later request on its connection (the
connection is closed, since its pipeline is out of step).
"""

from __future__ import annotations

import asyncio
import gc
import math
import selectors
import statistics
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "nearest_rank",
    "tail_percentile",
    "poisson_schedule",
    "http_request",
    "PhaseResult",
    "OpenLoopClient",
    "run",
]


def run(coroutine):
    """Run the generator's ``coroutine`` without the generator perturbing it.

    The default epoll selector rounds every wait up to whole milliseconds,
    which made sends 0.75 ms late on average (2-CPU Linux VM); ``select``
    takes microsecond timeouts (0.1 ms late), and the client watches only a
    couple of sockets.  The cyclic garbage collector is held off meanwhile:
    a full collection over the client's imports stalls sending for tens of
    milliseconds, which would be charged to the server.
    """
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return loop.run_until_complete(coroutine)
    finally:
        gc.enable()
        gc.unfreeze()
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        loop.close()


#: Samples that must lie beyond a reported tail percentile.
TAIL_MIN_BEYOND = 10
#: The tail reported once the sample supports it.
TAIL_CAP = 99.0


def _rank(percentile: float, n: int) -> int:
    # The epsilon keeps float error (0.9 * 100 = 90.00000000000001) from
    # moving an exact rank up by one.
    return max(1, math.ceil(percentile * n / 100.0 - 1e-9))


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: p99, or lower if fewer than 10 samples lie beyond.

    Nearest-rank.  From 1000 samples on this is p99; below that it is the
    highest percentile with ten samples beyond it, ``100 * (n - 10) / n``
    (p90 at n = 100).  With ten samples or fewer no percentile qualifies and
    the maximum is returned as percentile 100.  Capping at p99 keeps the tail
    comparable between runs of different lengths.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_MIN_BEYOND:
        return 100.0, ordered[-1]
    rank = min(_rank(TAIL_CAP, n), n - TAIL_MIN_BEYOND)
    return 100.0 * rank / n, ordered[rank - 1]


def poisson_schedule(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from phase start) of Poisson arrivals at ``rate``."""
    expected = rate * duration_s
    gaps = rng.exponential(1.0 / rate, size=int(expected + 8 * math.sqrt(expected) + 16))
    due = np.cumsum(gaps)
    return due[due < duration_s]


def http_request(path: str, body: bytes, content_type: str, host: str = "127.0.0.1") -> bytes:
    """One keep-alive ``POST`` request, ready to write to the socket."""
    head = (
        f"POST {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


@dataclass
class PhaseResult:
    """Everything one fixed-rate phase measured."""

    name: str
    rate: float
    duration_s: float
    #: Pool index of every scheduled arrival, in due order.
    picks: List[int]
    #: Seconds from due time to the last response byte (``None``: failed).
    latencies: List[Optional[float]]
    #: Seconds each arrival was sent after its due time (``None``: never sent).
    lateness: List[Optional[float]]
    statuses: List[int]
    bodies: List[Optional[bytes]]
    #: Wall-clock (``time.time``) bounds of the phase, for matching spans.
    start_unix: float = 0.0
    end_unix: float = 0.0
    #: Offsets from phase start of the last send and the last due time.
    last_send_s: float = 0.0
    last_due_s: float = 0.0

    @classmethod
    def merged(cls, name: str, parts: Sequence["PhaseResult"]) -> "PhaseResult":
        """One phase out of ``parts`` offered at the same rate, in order."""
        return cls(
            name=name,
            rate=parts[0].rate,
            duration_s=sum(p.duration_s for p in parts),
            picks=[x for p in parts for x in p.picks],
            latencies=[x for p in parts for x in p.latencies],
            lateness=[x for p in parts for x in p.lateness],
            statuses=[x for p in parts for x in p.statuses],
            bodies=[x for p in parts for x in p.bodies],
            start_unix=parts[0].start_unix,
            end_unix=parts[-1].end_unix,
            last_send_s=sum(p.last_send_s for p in parts),
            last_due_s=sum(p.last_due_s for p in parts),
        )

    @property
    def scheduled(self) -> int:
        return len(self.picks)

    @property
    def sent(self) -> int:
        return sum(1 for late in self.lateness if late is not None)

    @property
    def ok_latencies(self) -> List[float]:
        return [lat for lat, status in zip(self.latencies, self.statuses)
                if lat is not None and status == 200]

    @property
    def failed(self) -> int:
        return self.scheduled - len(self.ok_latencies)

    def send_ratio(self) -> float:
        """Achieved over offered send rate (1.0 = the schedule was kept)."""
        if not self.picks:
            return 1.0
        if self.last_send_s <= 0.0 or self.last_due_s <= 0.0:
            return 1.0 if self.sent == self.scheduled else 0.0
        return (self.sent / self.scheduled) * min(1.0, self.last_due_s / self.last_send_s)

    def backlog_growing(self) -> bool:
        """Median latency of the last third above twice the first third's."""
        latencies = self.ok_latencies
        third = len(latencies) // 3
        if third == 0:
            return False
        first = statistics.median(latencies[:third])
        last = statistics.median(latencies[-third:])
        return last > 2.0 * first

    def summary(self) -> dict:
        latencies = self.ok_latencies
        lateness = [late for late in self.lateness if late is not None]
        doc = {
            "name": self.name,
            "rate": self.rate,
            "duration_s": self.duration_s,
            "scheduled": self.scheduled,
            "sent": self.sent,
            "ok": len(latencies),
            "failed": self.failed,
            "send_ratio": round(self.send_ratio(), 4),
            "backlog_growing": self.backlog_growing(),
        }
        if latencies:
            pct, tail = tail_percentile(latencies)
            doc.update(
                p50_ms=1000.0 * statistics.median(latencies),
                tail_pct=round(pct, 3),
                tail_ms=1000.0 * tail,
            )
        if lateness:
            pct, tail = tail_percentile(lateness)
            doc.update(late_tail_pct=round(pct, 3), late_tail_ms=1000.0 * tail)
        return doc


class _Connection:
    __slots__ = ("reader", "writer")

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        key, _, value = line.partition(":")
        if key.strip().lower() == "content-length":
            length = int(value)
    body = await reader.readexactly(length) if length else b""
    return status, body


class OpenLoopClient:
    """Pipelined keep-alive connections driven by an open-loop schedule."""

    def __init__(self, host: str, port: int, connections: int, timeout_s: float = 5.0) -> None:
        self.host = host
        self.port = port
        self.connections = connections
        self.timeout_s = timeout_s
        self._conns: List[Optional[_Connection]] = [None] * connections

    async def _connection(self, index: int) -> _Connection:
        conn = self._conns[index]
        if conn is None:
            reader, writer = await asyncio.open_connection(self.host, self.port)
            conn = self._conns[index] = _Connection(reader, writer)
        return conn

    async def _drop(self, index: int) -> None:
        conn = self._conns[index]
        self._conns[index] = None
        if conn is not None:
            conn.writer.close()
            try:
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def close(self) -> None:
        for index in range(self.connections):
            await self._drop(index)

    async def run_phase(
        self,
        name: str,
        pool: Sequence[bytes],
        rate: float,
        duration_s: float,
        rng: np.random.Generator,
        keep_bodies: bool = True,
    ) -> PhaseResult:
        """Send Poisson arrivals drawn from ``pool`` at ``rate`` for ``duration_s``."""
        due = poisson_schedule(rate, duration_s, rng).tolist()
        picks = rng.integers(len(pool), size=len(due)).tolist()
        n = len(due)
        result = PhaseResult(
            name=name,
            rate=rate,
            duration_s=duration_s,
            picks=picks,
            latencies=[None] * n,
            lateness=[None] * n,
            statuses=[0] * n,
            bodies=[None] * n,
            last_due_s=due[-1] if n else 0.0,
        )
        conns = [await self._connection(index) for index in range(self.connections)]
        result.start_unix = time.time()
        start = time.perf_counter()
        sent_at = [0.0] * n

        async def sender(index: int, mine: List[int], gone: asyncio.Event) -> None:
            writer = conns[index].writer
            cursor = 0
            while cursor < len(mine) and not gone.is_set():
                delay = start + due[mine[cursor]] - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                now = time.perf_counter()
                chunk = []
                while cursor < len(mine) and start + due[mine[cursor]] <= now:
                    arrival = mine[cursor]
                    chunk.append(pool[picks[arrival]])
                    sent_at[arrival] = now
                    result.lateness[arrival] = now - (start + due[arrival])
                    cursor += 1
                try:
                    writer.write(b"".join(chunk))
                    await writer.drain()
                except (ConnectionError, OSError):
                    gone.set()
                    return
                result.last_send_s = max(result.last_send_s, now - start)

        async def receiver(index: int, mine: List[int], gone: asyncio.Event) -> None:
            reader = conns[index].reader
            for arrival in mine:
                deadline = start + due[arrival] + self.timeout_s
                try:
                    status, body = await asyncio.wait_for(
                        _read_response(reader), max(0.0, deadline - time.perf_counter())
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        asyncio.LimitOverrunError, ConnectionError, OSError, ValueError):
                    gone.set()
                    return
                done = time.perf_counter()
                result.statuses[arrival] = status
                result.latencies[arrival] = done - (start + due[arrival])
                if keep_bodies:
                    result.bodies[arrival] = body

        tasks = []
        for index in range(self.connections):
            mine = list(range(index, n, self.connections))
            gone = asyncio.Event()
            tasks.append(asyncio.create_task(sender(index, mine, gone)))
            tasks.append(asyncio.create_task(receiver(index, mine, gone)))
        for task in tasks:
            await task
        for index in range(self.connections):
            mine = range(index, n, self.connections)
            if any(result.latencies[arrival] is None for arrival in mine):
                await self._drop(index)
        result.end_unix = time.time()
        return result
