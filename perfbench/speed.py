"""Machine-speed reference for the end-to-end timings.

On a shared virtual machine the speed at which the interpreter runs
drifts by tens of percent between runs a minute apart, for all code
alike.  A fixed task that belongs to the benchmark, not to matchshed, is
timed between replays; each replay's timings are scaled by how fast that
task ran around it.  A timing reported in seconds is thus in reference
seconds: seconds on a machine where the task takes ``REF_S``.  A change
to matchshed cannot change the task, so the scaling leaves comparisons
between two versions of the program intact.
"""

from __future__ import annotations

import random
import time

REF_S = 0.1     # task seconds that define one reference second


class _Event:
    __slots__ = ("tag", "seq", "attrs")

    def __init__(self, tag, seq, attrs):
        self.tag = tag
        self.seq = seq
        self.attrs = attrs


def _events(n: int = 40_000) -> list:
    rng = random.Random(20251017)
    return [_Event(rng.choice("ABCDEFGHIJ"), i,
                   {"ID": float(rng.randint(1, 10)),
                    "v": rng.uniform(1.0, 3e6)})
            for i in range(n)]


def _task(events) -> int:
    """A keyed, windowed self-join: the interpreter work a replay does
    (attribute and dict reads, short list scans, small allocations)."""
    buckets = {}
    hits = 0
    for e in events:
        key = (e.tag, e.attrs["ID"])
        lst = buckets.get(key)
        if lst is None:
            lst = buckets[key] = []
        v = e.attrs["v"]
        for f in lst:
            if e.seq - f.seq <= 2000 and f.attrs["v"] < v:
                hits += 1
        lst.append(e)
        if len(lst) > 24:
            del lst[:12]
    return hits


class Speed:
    """Times the reference task; ``scale()`` gives the factor that turns
    seconds measured since the previous call into reference seconds."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.events = _events()
        self.hits = None
        self.samples = []
        self.last = self._time_task()

    def _time_task(self) -> float:
        t0 = self.clock()
        hits = _task(self.events)
        elapsed = self.clock() - t0
        if self.hits is not None and hits != self.hits:
            raise RuntimeError("reference task is not deterministic")
        self.hits = hits
        self.samples.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """REF_S over the mean task time just before and just after the
        measured stretch."""
        now = self._time_task()
        factor = REF_S / ((self.last + now) / 2)
        self.last = now
        return factor
