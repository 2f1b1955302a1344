"""Single-process load generator for the socket serving tier.

One asyncio event loop on one thread drives at most ``nproc`` TCP
connections to a :class:`~repro.serving.server.RecommenderServer` running
in another process, so the generator never shares an interpreter lock
with the server front-end.  Two kinds of phase:

* **closed loop** — every connection sends its next query only after the
  previous answer arrived, for a fixed duration; completed queries per
  second stand in for the highest sustainable rate;
* **open loop** — a fixed number of queries are due on a seeded Poisson
  schedule at a fixed rate, whatever the server's state, and each is
  pipelined onto the
  connection with the fewest outstanding requests (the server answers a
  connection's frames in order).  Latency is measured from the moment a
  query was *due*, so a stall also charges the queries that waited behind
  it; how late the generator itself sent each query is kept as its lag.

Queries are encoded and answers decoded with :mod:`repro.serving.wire`,
looked up through the module at call time, so the trace harness can time
the client's own codec work.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.serving import wire
from repro.serving.query import Query

Address = Tuple[str, int]
MakeQuery = Callable[[int], Query]

#: Seconds an open-loop phase waits for its last answers before it fails
#: the ones still outstanding.
DRAIN_TIMEOUT_S = 30.0


@dataclass
class Request:
    """Timestamps (``time.perf_counter`` seconds) of one query."""

    due: float
    begin: float = 0.0   # encoding started (the query left the generator)
    done: float = 0.0    # answer decoded
    ok: bool = False


@dataclass
class PhaseResult:
    name: str
    requests: List[Request] = field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0

    @property
    def completed(self) -> List[Request]:
        return [request for request in self.requests if request.ok]

    @property
    def failed(self) -> int:
        return sum(not request.ok for request in self.requests)

    @property
    def duration_s(self) -> float:
        return self.ended - self.started

    def latencies_ms(self) -> np.ndarray:
        """Due time to decoded answer, per completed query."""
        return np.array([1e3 * (r.done - r.due) for r in self.completed])

    def round_trips_ms(self) -> np.ndarray:
        """Encode start to decoded answer, per completed query."""
        return np.array([1e3 * (r.done - r.begin) for r in self.completed])

    def lags_ms(self) -> np.ndarray:
        """How late the generator started each query."""
        return np.array([1e3 * (r.begin - r.due) for r in self.requests])


@dataclass
class Phase:
    name: str
    kind: str                     # "closed" | "open"
    make_query: MakeQuery
    duration_s: float = 0.0       # closed loop
    offsets_s: Sequence[float] = ()  # open loop: due times after the start


def poisson_schedule(rate_per_s: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Due offsets of the first ``count`` arrivals of a Poisson process.

    A fixed count, not a fixed duration, so that every run has the same
    number of latency samples.
    """
    if rate_per_s <= 0 or count <= 0:
        raise ValueError("rate and count must be positive")
    return np.cumsum(rng.exponential(1.0 / rate_per_s, size=count))


def fewest_outstanding(outstanding: Sequence[int]) -> int:
    """Index of the connection with the fewest requests in flight."""
    return min(range(len(outstanding)), key=outstanding.__getitem__)


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: "deque[Request]" = deque()


def _answered(blob: bytes) -> bool:
    """Decode one reply frame; ``True`` for a result, ``False`` for an error."""
    kind, meta, tensors = wire.decode_frame(blob)
    if kind != "result":
        return False
    wire.decode_result(meta, tensors)
    return True


async def _closed_loop(connections: List[_Connection], phase: Phase,
                       clock: Callable[[], float]) -> PhaseResult:
    result = PhaseResult(phase.name)
    counter = itertools.count()
    result.started = clock()
    stop = result.started + phase.duration_s

    async def drive(connection: _Connection) -> None:
        while clock() < stop:
            request = Request(due=clock())
            request.begin = request.due
            blob = wire.encode_query(phase.make_query(next(counter)))
            connection.writer.write(blob)
            await connection.writer.drain()
            reply = await wire.read_frame_async(connection.reader)
            request.ok = _answered(reply)
            request.done = clock()
            result.requests.append(request)

    await asyncio.gather(*(drive(connection) for connection in connections))
    result.ended = clock()
    return result


async def _open_loop(connections: List[_Connection], phase: Phase,
                     clock: Callable[[], float]) -> PhaseResult:
    result = PhaseResult(phase.name)

    async def receive(connection: _Connection) -> None:
        while True:
            reply = await wire.read_frame_async(connection.reader)
            request = connection.pending.popleft()
            request.ok = _answered(reply)
            request.done = clock()

    readers = [asyncio.ensure_future(receive(connection))
               for connection in connections]
    result.started = clock()
    try:
        for index, offset in enumerate(phase.offsets_s):
            request = Request(due=result.started + float(offset))
            delay = request.due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            connection = connections[fewest_outstanding(
                [len(c.pending) for c in connections])]
            request.begin = clock()
            blob = wire.encode_query(phase.make_query(index))
            connection.pending.append(request)
            connection.writer.write(blob)
            result.requests.append(request)
        deadline = clock() + DRAIN_TIMEOUT_S
        while any(c.pending for c in connections) and clock() < deadline:
            if any(reader.done() for reader in readers):
                break  # a reader failed; its exception surfaces below
            await asyncio.sleep(0.001)
    finally:
        for reader in readers:
            reader.cancel()
        outcomes = await asyncio.gather(*readers, return_exceptions=True)
    result.ended = clock()
    for outcome in outcomes:
        if not isinstance(outcome, asyncio.CancelledError):
            raise outcome
    return result


async def _run(address: Address, phases: Sequence[Phase],
               connections: int,
               clock: Callable[[], float]) -> Dict[str, PhaseResult]:
    opened = []
    try:
        for _ in range(connections):
            reader, writer = await asyncio.open_connection(*address)
            opened.append(_Connection(reader, writer))
        results = {}
        for phase in phases:
            loop = _closed_loop if phase.kind == "closed" else _open_loop
            results[phase.name] = await loop(opened, phase, clock)
        return results
    finally:
        for connection in opened:
            connection.writer.close()
        for connection in opened:
            try:
                await connection.writer.wait_closed()
            except ConnectionError:
                pass


def run(address: Address, phases: Sequence[Phase], connections: int = 2,
        clock: Callable[[], float] = time.perf_counter,
        ) -> Dict[str, PhaseResult]:
    """Run ``phases`` back to back over ``connections`` TCP connections."""
    return asyncio.run(_run(address, phases, connections, clock))
