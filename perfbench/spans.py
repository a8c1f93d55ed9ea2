"""Span recording and self-time accounting for the traced benchmark run.

A :class:`Tracer` keeps every span in memory as ``(name, start, end,
parent)``; the parent is the span that was open when this one began, so
nesting follows the call stack.  A span's *self time* is its duration
minus the part of its interval that its direct children cover.  Because
children are clipped to their parent and a child's own children are
already inside it, summing self times over every span gives exactly the
union of the root spans' intervals: nothing is counted twice.

:func:`instrument` installs wrappers on public functions and methods of
the library (by attribute assignment on the owning class or module) and
restores the originals on exit.  Nothing under ``src/`` changes; the
timed run of the benchmark runs with no wrapper installed.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Span", "Tracer", "Wrap", "instrument", "self_times"]


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span, None for a root

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[tuple[str, float, int | None]] = []
        self._slot: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record ``name`` around the block; nests under any open span."""
        parent = self._slot[-1] if self._slot else None
        # Reserve the index now so children can name their parent before
        # this span has an end.
        index = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent))
        self._slot.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._slot.pop()
            self.spans[index] = Span(name, start, end, parent)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name`` (children included)."""
        return sum(s.duration for s in self.spans if s.name == name)


def _covered(start: float, end: float,
             intervals: Sequence[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: Sequence[Span]) -> dict[str, float]:
    """Self seconds per span name: duration minus what children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += s.duration - _covered(s.start, s.end,
                                             children.get(i, ()))
    return dict(out)


@dataclass(frozen=True)
class Wrap:
    """One wrapped call: ``owner.attr`` recorded as span ``name``.

    ``name=None`` records no span, only the ``observe`` hook — for calls
    whose arguments are counted but whose time belongs to the caller.
    ``observe(tracer, args, kwargs, result)`` runs after the call returns,
    outside the span.
    """

    owner: Any
    attr: str
    name: str | None
    observe: Callable[..., None] | None = None


def _wrapped(tracer: Tracer, fn: Callable, w: Wrap) -> Callable:
    name, observe = w.name, w.observe

    def wrapper(*args, **kwargs):
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer, wraps: Sequence[Wrap]) -> Iterator[Tracer]:
    """Install every wrapper for the duration of the block, then restore."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for w in wraps:
            # Read the class's own attribute: ``getattr`` on a class would
            # hand back a bound classmethod or an inherited function.
            original = w.owner.__dict__[w.attr] if isinstance(w.owner, type) \
                else getattr(w.owner, w.attr)
            saved.append((w.owner, w.attr, original))
            setattr(w.owner, w.attr, _wrapped(tracer, original, w))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
