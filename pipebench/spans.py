"""In-memory span recording through timing-only wrappers.

The benchmark never edits the program: :func:`installed` swaps a layer's
public callables (methods on its classes, or functions as bound in the
module that calls them) for wrappers that record one span per call and
pass arguments, results and exceptions through untouched, then restores
the originals.  Spans nest by call stack, so every span knows the span that
caused it.  The serving stack runs each workload on one thread (serial
shards, one asyncio loop), which is what makes one stack per tracer exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

__all__ = ["Target", "Tracer", "installed", "self_times"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``owner.attr`` records spans named ``name``.

    ``note`` (optional) is called as ``note(args, kwargs, result)`` after a
    successful call; whatever it returns is kept on the span (a count, a
    key), so counts are taken at the same boundary as the time.
    """

    owner: Any
    attr: str
    name: str
    note: Optional[Callable[[tuple, dict, Any], Any]] = None


class Tracer:
    """Columnar in-memory span store: name, start, end, parent, note."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.notes: List[Any] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` recording one span per call."""
        clock = self.clock
        names, starts, ends, parents, notes = (
            self.names,
            self.starts,
            self.ends,
            self.parents,
            self.notes,
        )
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            notes.append(None)
            ends.append(float("nan"))
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if note is not None:
                notes[index] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def children(self) -> List[List[int]]:
        """Child span indices of every span."""
        kids: List[List[int]] = [[] for _ in self.names]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                kids[parent].append(index)
        return kids

    def dump(self, path: str) -> None:
        """Write every span out as one JSON object of columns."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "name": self.names,
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                },
                handle,
            )


def self_times(tracer: Tracer) -> List[float]:
    """Each span's duration minus its children's.

    Wrapped calls are synchronous and nest on one call stack, so a span's
    children never overlap and always lie inside it.
    """
    out = [end - start for start, end in zip(tracer.starts, tracer.ends)]
    for index, parent in enumerate(tracer.parents):
        if parent >= 0:
            out[parent] -= tracer.ends[index] - tracer.starts[index]
    return out


@contextlib.contextmanager
def installed(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Wrap every target for the duration of the block, then restore it."""
    originals: Dict[tuple, Any] = {}
    try:
        for target in targets:
            key = (id(target.owner), target.attr)
            if key in originals:
                raise ValueError("%s wrapped twice" % target.attr)
            original = target.owner.__dict__[target.attr]
            originals[key] = (target.owner, target.attr, original)
            setattr(target.owner, target.attr, tracer.wrap(target.name, original, target.note))
        yield tracer
    finally:
        for owner, attr, original in originals.values():
            setattr(owner, attr, original)
