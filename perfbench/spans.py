"""In-memory span tracer for outside-in layer timing.

A span is (name, start, end, parent).  Spans are recorded by wrapping a
callable: the wrapper stamps the clock before and after the call and
links the span to whichever traced call is running around it, so the
spans of one single-threaded replay form a forest.  Spans stay in
compact arrays until the run ends; ``write_tsv`` dumps them and
``self_times`` reduces them to per-name self time (duration minus the
part of it that child spans cover).
"""

from __future__ import annotations

import time
from array import array


class Tracer:
    """Span store plus a stack of the spans currently open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []             # name id -> name
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def __len__(self):
        return len(self.start)

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._intern(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def spans(self):
        """(name, start, end, parent index) for every recorded span."""
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def write_tsv(self, path: str):
        with open(path, "w") as f:
            f.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (nm, s, e, p) in enumerate(self.spans()):
                f.write(f"{i}\t{nm}\t{s!r}\t{e!r}\t{p}\n")


def self_times(spans) -> dict:
    """name -> {"calls", "total_s", "self_s"} from (name, start, end,
    parent) spans, where a span's self time is its duration minus the
    union of its children's intervals clipped to it."""
    children = {}
    for i, (_, s, e, p) in enumerate(spans):
        if p >= 0:
            children.setdefault(p, []).append((s, e))
    out = {}
    for i, (name, s, e, _) in enumerate(spans):
        covered = 0.0
        lo = s
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, lo), min(ce, e)
            if ce > cs:
                covered += ce - cs
                lo = ce
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += e - s
        agg["self_s"] += (e - s) - covered
    return out
