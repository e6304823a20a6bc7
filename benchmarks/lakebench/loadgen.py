"""Closed-loop HTTP load from one asyncio process.

Each :class:`Target` drives one server over :data:`CONNECTIONS`
keep-alive connections.  Every connection sends its next request only
after the previous reply arrived, so a slow server receives less load
and the server never holds more than ``CONNECTIONS`` requests.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Tuple

from benchmarks.lakebench.traffic import Request

#: At most ``nproc`` (2 on the reference box) connections in total per
#: measured server, all from this single process.
CONNECTIONS = 2

#: What a failed exchange raises: refused/reset sockets, a truncated or
#: unparsable reply.
_FAILURES = (OSError, IndexError, ValueError, asyncio.IncompleteReadError)


@dataclass
class Segment:
    """One timed stretch of closed-loop load against one target."""

    start: float
    end: float = 0.0
    ok: int = 0
    failed: int = 0
    #: Seconds from send to full reply, for every successful request.
    latencies: List[float] = field(default_factory=list)

    @property
    def qps(self) -> float:
        return self.ok / (self.end - self.start)


class _Connection:
    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, request: Request) -> Tuple[int, bytes]:
        """Send one GET, return (status, body); reconnects on demand."""
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port
            )
        assert self.reader is not None
        try:
            self.writer.write(
                f"GET {request.path} HTTP/1.1\r\nHost: {self.host}\r\n\r\n"
                .encode("latin-1")
            )
            status = int((await self.reader.readline()).split()[1])
            length = 0
            while True:
                line = await self.reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            return status, await self.reader.readexactly(length)
        except _FAILURES:
            await self.close()
            raise

    async def close(self) -> None:
        writer, self.writer, self.reader = self.writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


class Target:
    """One server plus the request stream and connections that load it."""

    def __init__(self, host: str, port: int, stream: Iterator[Request]):
        self.stream = stream
        self._connections = [_Connection(host, port) for _ in range(CONNECTIONS)]
        #: Every request in the order sent (warm-up included).
        self.sent: List[Request] = []
        self.segments: List[Segment] = []

    async def _loop(self, connection: _Connection, stop_at: float,
                    segment: Optional[Segment]) -> None:
        while time.perf_counter() < stop_at:
            request = next(self.stream)
            self.sent.append(request)
            began = time.perf_counter()
            try:
                status, _ = await connection.exchange(request)
            except _FAILURES:
                status = 0
            latency = time.perf_counter() - began
            if segment is None:
                continue
            if status == 200:
                segment.ok += 1
                segment.latencies.append(latency)
            else:
                segment.failed += 1

    async def load(self, seconds: float, measure: bool = True) -> Optional[Segment]:
        """Closed-loop load for ``seconds``; a warm-up records nothing."""
        segment = Segment(start=time.perf_counter()) if measure else None
        stop_at = time.perf_counter() + seconds
        await asyncio.gather(
            *(self._loop(c, stop_at, segment) for c in self._connections)
        )
        if segment is not None:
            segment.end = time.perf_counter()
            self.segments.append(segment)
        return segment

    async def replay(
        self, requests: Iterable[Request]
    ) -> List[Tuple[Request, int, bytes]]:
        """Send ``requests`` once each over the same connections."""
        queue = list(requests)
        replies: List[Optional[Tuple[Request, int, bytes]]] = [None] * len(queue)
        cursor = iter(range(len(queue)))

        async def worker(connection: _Connection) -> None:
            for position in cursor:
                request = queue[position]
                try:
                    status, body = await connection.exchange(request)
                except _FAILURES:
                    status, body = 0, b""
                replies[position] = (request, status, body)

        await asyncio.gather(*(worker(c) for c in self._connections))
        return replies  # type: ignore[return-value]

    async def close(self) -> None:
        for connection in self._connections:
            await connection.close()

    # -- summaries ------------------------------------------------------
    @property
    def latencies(self) -> List[float]:
        return [latency for s in self.segments for latency in s.latencies]

    @property
    def windows(self) -> List[Tuple[float, float]]:
        return [(s.start, s.end) for s in self.segments]

    @property
    def attempted(self) -> int:
        return sum(s.ok + s.failed for s in self.segments)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.segments)

    def repeat_share(self) -> float:
        """Share of search requests whose (q, k, method) was sent before."""
        seen = set()
        repeats = searches = 0
        for key in (request.key for request in self.sent):
            if key[0] != "search":
                continue
            searches += 1
            repeats += key in seen
            seen.add(key)
        return repeats / searches if searches else 0.0
