"""Host-speed probe: a fixed piece of pure-Python work, timed between requests.

The benchmark runs on shared hosts whose speed drifts by 25-50 % over
seconds to minutes, because other tenants contend for the same physical
cores.  The drift slows momangle and this probe alike: on ``analyze`` the
sweep time and the mean probe time of the same sweep correlated at 0.97,
and scaling each sweep by its probes cut the sweep-to-sweep spread from
13 % to 3 %.

A sweep takes a probe before its first request, again before any request
that starts ``PROBE_EVERY_S`` or more after the last probe, and once after
its last request.  A request's time is scaled by ``REFERENCE_S`` over the
mean of the probe before it and the probe after it, which gives the time
the request would take on a host where the probe takes ``REFERENCE_S``.
The probe does not touch momangle, so a change to the program moves the
scaled times exactly as much as the raw ones.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from time import perf_counter

# Probe time of the host the scaled times refer to: a 2-vCPU Xeon VM
# under Python 3.11 takes about this long when its cores are not contended.
REFERENCE_S = 0.006

PROBE_EVERY_S = 0.05


def _work() -> int:
    """Rank mod p of a fixed 48x48 matrix, then some frozenset churn: the
    kinds of work momangle's elimination and subset walk do."""
    p, n, x = 32003, 48, 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(x % p)
        rows.append(row)
    rank = 0
    for col in range(n):
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        top = [v * inv % p for v in rows[rank]]
        rows[rank] = top
        for i in range(rank + 1, n):
            f = rows[i][col]
            if f:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], top)]
        rank += 1
    faces = set()
    for k in range(3000):
        faces.add(frozenset((k % 13, k % 17, k % 19)))
    return rank + len(faces)


def probe_s() -> float:
    """Seconds one run of the probe work takes, with the collector off so
    that the size of momangle's heap does not enter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Probes:
    """The probes of one sweep, in the order taken."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.times: list[float] = []

    def take(self) -> float:
        took = probe_s()
        self.ends.append(perf_counter())
        self.times.append(took)
        return took

    def take_if_due(self) -> None:
        if not self.ends or perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            self.take()

    def scale(self, start: float) -> float:
        """Factor for a request that started at ``start`` (no probe ran
        while it did): REFERENCE_S over the mean of its two probes."""
        before = bisect_right(self.ends, start) - 1
        mean = (self.times[before] + self.times[before + 1]) / 2
        return REFERENCE_S / mean
