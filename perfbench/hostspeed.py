"""Host times at a reference speed.

The benchmark runs on a shared host, whose speed on the same code swings
by a quarter within seconds and by more across minutes (other tenants on
the same cores); process CPU time swings with it, so it is not
preemption.  Raw wall times therefore moved 15-35% between invocations
of unchanged code, whatever statistic was taken over the repetitions.

Every host time the benchmark reports is scaled to a reference speed
instead: the :func:`reference_work` below, a fixed mix of the work the
serving stack does (dict updates, a heap, small numpy products), is
timed before and after each measured interval, and the interval's time
is multiplied by ``REF_S`` over the mean of the two.  A program change
moves the scaled time by the same ratio as the raw one; the host's
speed at that moment cancels out.  ``REF_S`` is about what the
reference work takes on a quiet core of the 2-core x86 host (Python
3.11, numpy 2.4) the benchmark was written on, so scaled times read as
that host's uncontended seconds.
"""

from __future__ import annotations

import heapq
import random
import time

import numpy as np

__all__ = ["REF_S", "reference_work", "reference_s", "Bracket"]

REF_S = 0.025


def reference_work() -> float:
    """A fixed piece of interpreter and numpy work; never change it."""
    rng = random.Random(1)
    table: dict[int, int] = {}
    heap: list[tuple[float, int]] = []
    acc = 0.0
    vec = np.arange(16.0)
    mat = np.ones((16, 16))
    for i in range(12000):
        key = rng.randrange(5000)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            acc += heapq.heappop(heap)[0]
        if i % 8 == 0:
            acc += float((mat @ (vec * i)).sum())
    return acc


def reference_s() -> float:
    """Wall seconds :func:`reference_work` takes now."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Bracket:
    """Reference timings around consecutive intervals.

    ``Bracket()`` times the reference once; each :meth:`close` times it
    again and returns the factor that scales the interval since the
    previous timing to reference speed, so ``n`` intervals cost ``n + 1``
    reference timings.  ``samples`` keeps every reference time.
    """

    def __init__(self):
        self.samples = [reference_s()]

    def close(self) -> float:
        self.samples.append(reference_s())
        return REF_S / ((self.samples[-2] + self.samples[-1]) / 2)
