"""A fixed reference computation that measures how fast the host is now.

The measurement host is shared: over minutes its speed for the same
Python work drifted by up to half (a batch that took 1.0 s took 1.5 s a
minute and a half later), which no number of repetitions inside one
run can average away.  ``run.py`` times this computation right before
and right after every repetition and scales the repetition's host times
by ``NOMINAL_S`` over the measured time, so the host-time metrics read
as if the host ran at its nominal speed.  The computation is the
benchmark's own and never changes with the program under test: a change
to the program moves the scaled metrics exactly as it moves the raw
ones.

It is built from what the simulator spends its time on -- heap pushes
and pops of (time, seq, object) entries, small-object allocation,
attribute access and dict stores -- so that it slows down with the host
the way the workloads do.  On the measurement host, over four 20 s
windows in which the median ``packet_storm`` batch time rose by 46%,
the scaled median stayed within 8%.
"""

from __future__ import annotations

import heapq
import statistics
import time

#: Median time of :func:`reference_seconds` on the measurement host (2
#: vCPUs, Python 3.11) in a quiet period.
NOMINAL_S = 0.020

_ITERATIONS = 20_000
#: Runs of the computation per measurement; their median is reported.
_ROUNDS = 5


class _Entry:
    __slots__ = ("key", "seq")

    def __init__(self, key: int, seq: int):
        self.key = key
        self.seq = seq


def _probe() -> float:
    start = time.perf_counter()
    heap: list = []
    latest: dict = {}
    total = 0
    for seq in range(_ITERATIONS):
        heapq.heappush(heap, (seq * 7919 % 10007, seq, _Entry(seq, seq)))
        if len(heap) > 2000:
            _, _, entry = heapq.heappop(heap)
            total += entry.key
            latest[entry.seq % 4096] = entry
    if total < 0:  # keeps the work observable
        raise AssertionError(total)
    return time.perf_counter() - start


def reference_seconds() -> float:
    """Median host time of ``_ROUNDS`` runs of the reference computation."""
    return statistics.median(_probe() for _ in range(_ROUNDS))
