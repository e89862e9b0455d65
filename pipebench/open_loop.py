"""Open-loop load: a generator process sends frames on a fixed schedule to an
``IngestGateway`` over TCP, and latency is timed from the *scheduled* send.

The generator never slows down because the server does: a frame due at
``t0 + i / rate`` is sent as soon as possible after that instant, and its
latency is counted from the instant, so a stall is charged to every frame
queued behind it (no coordinated omission).  Both processes read
``time.monotonic``, which is one system-wide clock on Linux.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.serving import IngestGateway, LatencyPolicy, WindowDecision, decision_sort_key

from pipebench.inputs import Frames

__all__ = [
    "CONNECTIONS",
    "GatewayPass",
    "LoadGenerator",
    "StampedDecisions",
    "gateway_pass",
    "ladder_search",
    "send_schedule",
    "serve_gateway",
    "setup_time",
    "sustainable_rate",
]

#: TCP connections the generator opens (patients are split by id parity).
CONNECTIONS = 2
#: Drain bound of the gateway's fleet.  100 ms of batching is nothing next
#: to a 60 s window, and it keeps the latency figures from being dominated
#: by the shared host's stalls of a few tens of ms.
MAX_AGE_S = 0.1
#: Generator start delay after a rung is requested (connection set-up).
START_DELAY_S = 0.1
#: How long a pass waits for sent frames still in flight to arrive.
RECEIVE_TIMEOUT_S = 30.0


def send_schedule(
    order: Sequence[Tuple[int, bytes]],
    t0: float,
    interval_s: float,
    send: Callable[[int, bytes], None],
    clock: Callable[[], float],
    sleep: Callable[[float], None],
) -> List[float]:
    """Send ``order[i]`` (connection, frame) at ``t0 + i * interval_s``.

    Returns each frame's lag: how late its send began after it was due.  A
    blocking ``send`` delays later frames, which then start late; their due
    times never move.
    """
    lags = []
    for index, (conn, frame) in enumerate(order):
        due = t0 + index * interval_s
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        lags.append(max(0.0, now - due))
        send(conn, frame)
    return lags


def _generator_main(pipe, frames: List[bytes], conns: List[int]) -> None:
    """Generator process: one rung per request, until told to stop."""
    while True:
        request = pipe.recv()
        if request is None:
            return
        host, port, t0, rate, n = request
        sockets = [socket.create_connection((host, port)) for _ in range(CONNECTIONS)]
        try:
            for sock in sockets:
                # A node sends each frame when it is due; Nagle's algorithm
                # would hold small frames back for the previous ACK.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            interval = 0.0 if rate is None else 1.0 / rate
            lags = send_schedule(
                list(zip(conns[:n], frames[:n])),
                t0,
                interval,
                lambda conn, frame: sockets[conn].sendall(frame),
                time.monotonic,
                time.sleep,
            )
        finally:
            for sock in sockets:
                sock.close()
        pipe.send(lags)


class LoadGenerator:
    """The separate load-generator process, reused for every rung.  It is
    forked, like the input-preparation child, so that no resource-tracker
    process is started."""

    def __init__(self, frames: Frames) -> None:
        context = multiprocessing.get_context("fork")
        self._pipe, child = context.Pipe()
        conns = [int(pid) % CONNECTIONS for pid in frames.patient]
        self._process = context.Process(
            target=_generator_main, args=(child, frames.frames, conns), daemon=True
        )
        self._process.start()
        child.close()

    def request(self, host: str, port: int, t0: float, rate: Optional[float], n: int) -> None:
        self._pipe.send((host, port, t0, rate, n))

    def fileno(self) -> int:
        return self._pipe.fileno()

    def result(self) -> List[float]:
        return self._pipe.recv()

    def close(self) -> None:
        try:
            self._pipe.send(None)
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=10.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=10.0)
        self._pipe.close()


class StampedDecisions(list):
    """``IngestGateway.decisions`` replacement recording when each batch of
    decisions was emitted (the gateway extends it right after each drain)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        super().__init__()
        self.clock = clock
        self.drains: List[Tuple[float, List[WindowDecision]]] = []

    def extend(self, decisions) -> None:
        decisions = list(decisions)
        if decisions:
            self.drains.append((self.clock(), decisions))
        super().extend(decisions)


@dataclass
class GatewayPass:
    """One rung (or flood) over a prefix of the frames."""

    rate: Optional[float]
    n_frames: int
    t0: float
    wall_s: float
    decisions: List[WindowDecision]
    drains: List[Tuple[float, List[WindowDecision]]]
    lags: List[float]
    stats: object
    #: CPU time of the serving process over the pass (set by the caller).
    cpu_s: float = 0.0

    @property
    def scheduled(self) -> List[float]:
        interval = 0.0 if self.rate is None else 1.0 / self.rate
        return [self.t0 + i * interval for i in range(self.n_frames)]


async def serve_gateway(build_fleet, clock: Callable[[], float] = time.monotonic):
    """Trained model -> gateway listening for its first frame: the stack's
    set-up.  Returns the gateway, its address and the set-up time."""
    t_setup = clock()
    gateway = IngestGateway(
        build_fleet(), backpressure="block", drain_policy=LatencyPolicy(MAX_AGE_S), clock=clock
    )
    address = await gateway.serve()
    return gateway, address, clock() - t_setup


def setup_time(build_fleet, clock: Callable[[], float] = time.monotonic) -> float:
    """Set up one gateway stack, stop it and return its set-up time."""

    async def once() -> float:
        gateway, _, setup_s = await serve_gateway(build_fleet, clock)
        await gateway.stop()
        return setup_s

    return asyncio.run(once())


async def _run_gateway(build_fleet, generator: LoadGenerator, rate, n, clock) -> GatewayPass:
    loop = asyncio.get_running_loop()
    gateway, (host, port), _ = await serve_gateway(build_fleet, clock)
    stamped = StampedDecisions(clock)
    gateway.decisions = stamped
    done = loop.create_future()
    loop.add_reader(generator.fileno(), lambda: done.done() or done.set_result(None))
    t0 = clock() + START_DELAY_S
    try:
        generator.request(host, port, t0, rate, n)
        await done
    finally:
        loop.remove_reader(generator.fileno())
    lags = generator.result()
    # Every sent frame must be in before the graceful stop, which would
    # otherwise cut connections still held back by block backpressure.  A
    # frame that never arrives is left to the caller's delivery check.
    deadline = clock() + RECEIVE_TIMEOUT_S
    while gateway.stats().frames_received < n and clock() < deadline:
        await asyncio.sleep(0.002)
    decisions = await gateway.stop()
    wall = clock() - t0
    decisions.sort(key=decision_sort_key)
    return GatewayPass(
        rate, n, t0, wall, decisions, stamped.drains, lags, gateway.stats()
    )


def gateway_pass(
    build_fleet,
    generator: LoadGenerator,
    rate: Optional[float],
    n: int,
    clock: Callable[[], float] = time.monotonic,
) -> GatewayPass:
    """Serve a fresh gateway stack while the generator sends ``n`` frames at
    ``rate`` frames/s (``None``: as fast as the gateway accepts them)."""
    return asyncio.run(_run_gateway(build_fleet, generator, rate, n, clock))


def ladder_search(n: int, start: int, passes: Callable[[int], bool]) -> Optional[int]:
    """Index of the highest passing rung of an ``n``-rung ladder, or ``None``.

    Tries ``start``, gallops away from it (4 rungs, then twice as many each
    time) until the result flips, then bisects between the highest passing
    and lowest failing rung tried.  ``passes(index)`` runs a rung; a rung is
    taken to pass whenever a higher one does.
    """
    step = 4
    lo, hi = -1, n  # highest rung known to pass, lowest known to fail
    if passes(start):
        lo = start
    else:
        hi = start
    while hi == n and lo < n - 1:
        probe = min(lo + step, n - 1)
        if passes(probe):
            lo = probe
        else:
            hi = probe
        step *= 2
    while lo < 0 < hi:
        probe = max(hi - step, 0)
        if passes(probe):
            lo = probe
        else:
            hi = probe
        step *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            lo = mid
        else:
            hi = mid
    return None if lo < 0 else lo


def sustainable_rate(rungs, limit_ms):
    """Highest rate meeting the latency limit without a growing backlog.

    ``rungs`` maps rate -> (p99_ms, max_lag_ms).  A rung passes when both
    stay within ``limit_ms``.  The answer is the highest passing rung, moved
    toward the next (failing) rung by where the worse of its two figures
    crosses the limit on the line between them, so it is continuous in the
    stack's capacity rather than snapping from rung to rung.
    """
    worst = {rate: max(p99, lag) for rate, (p99, lag) in rungs.items()}
    passing = [rate for rate in sorted(worst) if worst[rate] <= limit_ms]
    if not passing:
        low = min(worst)
        return low * min(1.0, limit_ms / worst[low])
    best = passing[-1]
    above = [rate for rate in sorted(worst) if rate > best]
    if not above:
        return float(best)
    nxt = above[0]
    span = worst[nxt] - worst[best]
    frac = (limit_ms - worst[best]) / span if span > 0 else 0.0
    return best + (nxt - best) * min(1.0, max(0.0, frac))
