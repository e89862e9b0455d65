"""Closed-loop passes: the benchmark pushes each frame when the last returns."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.serving import WindowDecision, decision_sort_key

from pipebench.inputs import Frames, decision_key

__all__ = ["PassResult", "closed_pass", "latencies_ms"]


@dataclass
class PassResult:
    """One pass over every frame: its wall time and what it emitted."""

    wall_s: float
    decisions: List[WindowDecision]
    #: ``(t_returned, decisions)`` for every drain that emitted something.
    drains: List[Tuple[float, List[WindowDecision]]]
    #: Per frame: when its push began (the closed loop's send time) and ended.
    sent: List[float]
    pushed: List[float]


def closed_pass(fleet, frames: Frames, clock: Callable[[], float] = time.monotonic) -> PassResult:
    """Round-robin ``push_wire`` of every frame with policy-driven drains."""
    n = len(frames)
    sent = [0.0] * n
    pushed = [0.0] * n
    drains: List[Tuple[float, List[WindowDecision]]] = []
    push_wire = fleet.push_wire
    maybe_drain = fleet.maybe_drain
    start = clock()
    for index, frame in enumerate(frames.frames):
        sent[index] = clock()
        push_wire(frame)
        pushed[index] = clock()
        out = maybe_drain()
        if out:
            drains.append((clock(), out))
    fleet.finish()
    out = fleet.drain()
    if out:
        drains.append((clock(), out))
    wall = clock() - start
    decisions = [d for _, group in drains for d in group]
    decisions.sort(key=decision_sort_key)
    return PassResult(wall, decisions, drains, sent, pushed)


def latencies_ms(drains, completed_by, since: List[float]) -> List[float]:
    """Per window: drain return minus ``since`` of the frame that completed
    it, in ms.  Windows no frame of ``since`` completed (the end-of-stream
    flush's, or those of frames past a sent prefix) are left out."""
    out = []
    for t_returned, group in drains:
        for decision in group:
            frame = completed_by.get(decision_key(decision), -1)
            if 0 <= frame < len(since):
                out.append(1e3 * (t_returned - since[frame]))
    return out
