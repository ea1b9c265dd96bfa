"""Historical-data-sketch cost model.

Every partial match hashes to an attribute key: its state plus the values
of the partition attributes (the SAME attributes used by the plan's
patterns).  The sketch keeps, per key, one counter pair per pattern:

* cn_i: complete matches of pattern i generated by matches with this key,
* pn_i: partial matches of pattern i generated likewise.

A new match credits its whole ancestor chain (itself included), so a key's
counters measure how productive matches with that key have historically
been.  Estimates read the counters straight back: contribution is cn,
overhead is pn.

Each entry also keeps ``rank``, ``-sum(cn)``, the first key by which a
guided reduction orders a cluster's PMs.  It is set where ``cn``
changes, and only there: by ``sketch_update`` when it credits a
complete match, and by ``decay``; so a guided reduction reads one float
per PM instead of summing its counters.  Code that sets ``cn`` by other
means must set ``rank`` with it.

Counters halve at every window-length epoch so estimates track recent
history and recover from distribution drift.  The epoch defaults to the
largest count window; a plan with only time windows has none, and its
sketch never decays.

A record reaches its counters only through the entry it holds
(``MatchRecord.entry``), set when it is first credited; a record never
credited estimates at zero.  An entry holds its key, so a child's key is
its parent's with the child's state, and a credit looks up only records
not credited before.  The records of one plan are credited by one sketch.
Holding entries is sound only while they are never deleted or replaced:
a sketch that evicts entries must clear the records' ``entry`` too.

The runner keeps the sketch only where it is read: in guided runs, whose
selection ranks PMs by it, and in runs that write ``sketch.csv``.  Other
runs never credit, decay or read it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .model import MatchRecord, patterns_in
from .plan import ExecutionPlan


@dataclass
class CostVectors:
    contribution: list  # per-pattern expected CMs generated
    overhead: list      # per-pattern expected PM-processing cost


class SketchEntry:
    __slots__ = ("cn", "pn", "rank", "key")

    def __init__(self, n: int, key=None):
        self.cn = [0.0] * n
        self.pn = [0.0] * n
        self.rank = -sum(self.cn)  # set anew wherever cn changes
        self.key = key  # the table key naming it


class Sketch:
    """Exact-key counter table (no lossy hashing) over ``n`` patterns; a
    record's pattern bits name its patterns as ``model.patterns_in``
    decodes them."""

    def __init__(self, plan: ExecutionPlan):
        self.n = plan.n
        self.table = {}  # key tuple -> SketchEntry
        self.partition_attrs = tuple(sorted(
            {a for attrs in plan.same_attrs.values() for a in attrs}))


def attr_key(sketch: Sketch, pm: MatchRecord):
    """Stable key: (state_id, partition attribute values of the first
    element)."""
    first = pm.slots[0]
    el = first[0] if isinstance(first, tuple) else first
    return (pm.state_id,) + tuple(el.attrs.get(a)
                                  for a in sketch.partition_attrs)


def sketch_update(sketch: Sketch, new_match: MatchRecord, cm_pids=(),
                  generators=None):
    """Credit the new match to its generators' keys: its ancestor chain,
    itself included, unless ``generators`` names them.

    ``cm_pids`` lists the patterns for which the match was emitted
    complete; its pattern_bits say which patterns it serves as a PM.
    Each generator's counters get one ``+= 1`` per credited pattern, in
    ascending pattern order, so counters stay bit-identical after decays;
    a generator credited a complete match has its ``rank`` set anew.
    A generator credited before is credited through its ``entry``; any
    other is looked up once and its ``entry`` set.  Its key is derived
    from its parent's entry when the parent has one, so ``attr_key``
    reads elements only for start records.
    """
    n = sketch.n
    table = sketch.table
    idx = patterns_in(new_match.pattern_bits, n)
    gens = None if generators is None else iter(generators)
    rho = new_match if gens is None else next(gens, None)
    while rho is not None:
        entry = rho.entry
        if entry is None:
            # a child keeps its parent's first element, so its key is the
            # parent's with its own state
            parent = rho.parent
            if parent is not None and parent.entry is not None:
                k = (rho.state_id,) + parent.entry.key[1:]
            else:
                k = attr_key(sketch, rho)
            entry = table.get(k)
            if entry is None:
                entry = table[k] = SketchEntry(n, k)
            rho.entry = entry
        pn = entry.pn
        for i in idx:
            pn[i] += 1
        if cm_pids:
            cn = entry.cn
            for i in cm_pids:
                cn[i] += 1
            entry.rank = -sum(cn)
        rho = rho.parent if gens is None else next(gens, None)


def estimate(sketch: Sketch, pm: MatchRecord) -> CostVectors:
    """The counters of ``pm``'s entry; zeros for a record never
    credited."""
    entry = pm.entry
    if entry is None:
        z = [0.0] * sketch.n
        return CostVectors(z, list(z))
    return CostVectors(list(entry.cn), list(entry.pn))


def decay(sketch: Sketch, factor: float = 0.5):
    """Epoch roll: scale every counter (halving by default) and set each
    entry's ``rank`` from its scaled ``cn``."""
    for entry in sketch.table.values():
        entry.cn = cn = [c * factor for c in entry.cn]
        entry.pn = [p * factor for p in entry.pn]
        entry.rank = -sum(cn)


def dump_csv(sketch: Sketch, path: str):
    n = sketch.n
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["key", "state_id"]
                   + [f"cn_{i + 1}" for i in range(n)]
                   + [f"pn_{i + 1}" for i in range(n)])
        for k in sorted(sketch.table, key=repr):
            e = sketch.table[k]
            key_txt = "|".join(repr(v) for v in k)
            w.writerow([key_txt, k[0]] + [repr(c) for c in e.cn]
                       + [repr(p) for p in e.pn])
