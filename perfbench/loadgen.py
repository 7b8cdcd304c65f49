"""Single-threaded HTTP load generator (one asyncio event loop).

Two phases against a ``repro serve`` process:

* :func:`open_loop` — requests are due on a fixed Poisson schedule made
  from the seed, whatever the server does; each is timed from when it
  was due, so a stall also charges the requests queued behind it, and
  the generator's own lateness is reported;
* :func:`closed_loop` — ``connections`` clients each send their next
  request as soon as the previous answer arrives.

At most ``max_inflight`` connections are open at once.  A request that
times out, is refused, or returns a non-200 status counts as failed.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass
class Sample:
    """One request: when it was due, sent and answered (loop seconds)."""

    path: str
    due: float
    sent: float
    done: float
    status: int
    body: bytes

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class PhaseResult:
    samples: List[Sample] = field(default_factory=list)
    #: Open loop only: seconds past due when the loop dispatched each request.
    late: List[float] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def sent(self) -> int:
        return len(self.samples)

    @property
    def succeeded(self) -> int:
        return sum(1 for s in self.samples if s.status == 200)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded


def poisson_schedule(rng: random.Random, rate: float, n: int) -> List[float]:
    """Offsets (seconds) of ``n`` Poisson arrivals at ``rate`` per second."""
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


async def fetch(host: str, port: int, method: str, path: str,
                body: Optional[bytes], timeout: float) -> Tuple[int, bytes]:
    """One HTTP/1.0 exchange on a fresh connection → (status, body).

    Status 0 marks a refused, reset or timed-out request.
    """
    writer = None
    try:
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout
        )
        head = f"{method} {path} HTTP/1.0\r\nHost: {host}\r\n"
        if body is not None:
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        writer.write(head.encode() + b"\r\n" + (body or b""))
        raw = await asyncio.wait_for(reader.read(), timeout)
    except (OSError, asyncio.TimeoutError):
        return 0, b""
    finally:
        if writer is not None:
            writer.close()
    head, _, payload = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, raw
    return status, payload


async def _open_loop(host, port, paths, offsets, max_inflight, timeout) -> PhaseResult:
    loop = asyncio.get_running_loop()
    gate = asyncio.Semaphore(max_inflight)
    result = PhaseResult()

    async def one(path: str, due: float) -> None:
        async with gate:
            sent = loop.time()
            status, body = await fetch(host, port, "GET", path, None, timeout)
        result.samples.append(Sample(path, due, sent, loop.time(), status, body))

    tasks = []
    start = loop.time() + 0.05
    result.started = start
    for path, offset in zip(paths, offsets):
        due = start + offset
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        result.late.append(loop.time() - due)
        tasks.append(loop.create_task(one(path, due)))
    await asyncio.gather(*tasks)
    result.ended = loop.time()
    return result


async def _closed_loop(host, port, paths, connections, seconds, timeout) -> PhaseResult:
    loop = asyncio.get_running_loop()
    result = PhaseResult()
    cursor = iter(paths)
    result.started = loop.time()
    stop = result.started + seconds

    async def client() -> None:
        for path in cursor:
            if loop.time() >= stop:
                return
            sent = loop.time()
            status, body = await fetch(host, port, "GET", path, None, timeout)
            result.samples.append(Sample(path, sent, sent, loop.time(), status, body))

    await asyncio.gather(*(client() for _ in range(connections)))
    result.ended = loop.time()
    return result


def open_loop(host: str, port: int, paths: Sequence[str], offsets: Sequence[float],
              max_inflight: int, timeout: float = 10.0) -> PhaseResult:
    """Send ``paths[i]`` at ``offsets[i]`` seconds after the start."""
    return asyncio.run(_open_loop(host, port, paths, offsets, max_inflight, timeout))


def closed_loop(host: str, port: int, paths: Sequence[str], connections: int,
                seconds: float, timeout: float = 10.0) -> PhaseResult:
    """``connections`` back-to-back clients for ``seconds``.

    ``paths`` must hold more requests than the phase can send.
    """
    return asyncio.run(_closed_loop(host, port, paths, connections, seconds, timeout))


def request(host: str, port: int, method: str, path: str, body: Optional[bytes] = None,
            timeout: float = 30.0) -> Tuple[int, bytes, float]:
    """One blocking request → (status, body, seconds it took)."""

    async def run():
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        status, payload = await fetch(host, port, method, path, body, timeout)
        return status, payload, loop.time() - t0

    return asyncio.run(run())
