"""Overload detection, per-pattern overhead budgets, and the hierarchical
greedy selection of which partial matches survive a reduction.

When some pattern's EWMA latency reaches its bound, the overloaded
patterns form a bitmap b_OL.  Clusters whose psd does not intersect b_OL
are untouched.  The remaining clusters are drained in descending psd
value (most-shared first); within a cluster PMs are ranked by
contribution, and a PM is kept only while every overloaded pattern it
serves stays within its overhead budget

    B_i = (L_i / l_i) * T_i

where T_i is the current total overhead of pattern i over live PMs.
Infeasible PMs are discarded immediately (tombstoned); skipping them
cannot hurt later candidates because spend only grows.

Cost of a reduction: ``budgets`` walks the live PMs of the clusters
that serve an overloaded pattern, and ``select`` those of the
overloaded clusters; every other cluster is counted kept from its
states' live counts.  A cluster is read from its states' buffers
(``psd.ClusterIndex``).  ``select`` reads each distinct sketch key once
(its contribution sum and its pn counters) and ranks each overloaded
cluster with one sort; every PM then costs a few lookups, with the
patterns a ``pattern_bits`` value serves cached as an index tuple."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cost
from .model import render_bitmap
from .psd import ClusterIndex


def trigger(monitor, bounds) -> int:
    """Overload label: bit i set when l_i >= L_i."""
    n = monitor.n
    b = 0
    for i in range(n):
        if monitor.latency_ms[i] >= bounds[i]:
            b |= 1 << (n - i - 1)
    return b


def budgets(index: ClusterIndex, sketch, monitor, bounds,
            theta=cost.theta_constant) -> dict:
    """B_i for each overloaded pattern i (others are unconstrained).

    T_i sums, PM by PM in cluster order, the overhead ``pn_i * theta(pm)``
    of every live PM serving pattern i; a PM whose key the sketch has not
    seen adds nothing.  A PM's ``pattern_bits`` lie within its state's
    psd, so a cluster whose psd has no overloaded pattern is skipped.
    """
    n = monitor.n
    lat = monitor.latency_ms
    over = [i for i in range(n) if lat[i] >= bounds[i] and lat[i] > 0]
    totals = dict.fromkeys(over, 0.0)
    over_bits = sum(1 << (n - i - 1) for i in over)
    table = sketch.table
    idx_of = {}  # pattern_bits -> overloaded patterns it serves
    for b in index.states:
        if not b & over_bits:
            continue
        for pm in index.lookup(b):
            bits = pm.pattern_bits
            idx = idx_of.get(bits)
            if idx is None:
                idx = idx_of[bits] = tuple(
                    i for i in sketch.pattern_indices(bits) if i in totals)
            if not idx:
                continue
            entry = table.get(pm.key or cost.attr_key(sketch, pm))
            if entry is None:
                continue
            pn = entry.pn
            t = theta(pm)
            for i in idx:
                totals[i] += pn[i] * t
    return {i: (bounds[i] / lat[i]) * totals[i] for i in over}


@dataclass
class SelectionAudit:
    ts: float
    b_ol: int
    kept: int = 0
    discarded: int = 0
    spend: dict = field(default_factory=dict)    # pattern -> S_i
    budget: dict = field(default_factory=dict)   # pattern -> B_i

    def csv_row(self, n: int) -> list:
        cols = [repr(self.ts), render_bitmap(self.b_ol, n),
                str(self.kept), str(self.discarded)]
        for i in sorted(self.budget):
            cols.append(f"P{i + 1}:{self.spend.get(i, 0.0):.6g}/"
                        f"{self.budget[i]:.6g}")
        return cols


def select(index: ClusterIndex, b_ol: int, budget_map: dict, sketch,
           theta=cost.theta_constant, now_ts: float = 0.0) -> SelectionAudit:
    """Greedy budgeted selection; discarded PMs are tombstoned in place.

    Overloaded clusters are drained most-shared first.  Within one, PMs
    are ranked by the key ``(-contribution, first_ts, first_seq,
    last_seq, position)``: contribution sum (cn summed over patterns)
    descending, ties to the older first element, then to the older last
    element, then to the earlier cluster member (state by state, each
    state's in buffer order).  In an engine-driven run that breaks ties
    in creation order, except when one element both extends a deeper
    Kleene state and enters a shallower state of the same cluster: the
    deeper record is created first but ranked second.  The key is
    unique, so one sort fixes the order.  A PM is kept while every
    overloaded pattern it serves stays within budget after adding its
    overhead ``pn_i * theta(pm)``.  Returns an audit record with
    kept/discarded counts and per-pattern spend against budget.
    """
    n = index.n
    audit = SelectionAudit(ts=now_ts, b_ol=b_ol, budget=dict(budget_map))
    spend = {i: 0.0 for i in budget_map}

    overloaded = []
    for b, states in index.states.items():
        if b & b_ol:
            overloaded.append(b)
        else:
            audit.kept += sum(s.live for s in states)
    overloaded.sort(reverse=True)

    table = sketch.table
    zeros = (0.0,) * n
    reads = {}   # key -> (contribution sum, pn), read once per reduction
    idx_of = {}  # pattern_bits -> budgeted patterns it serves
    for b in overloaded:
        ranked = []
        for j, pm in enumerate(index.lookup(b)):
            k = pm.key or cost.attr_key(sketch, pm)
            read = reads.get(k)
            if read is None:
                entry = table.get(k)
                read = reads[k] = ((sum(entry.cn), entry.pn)
                                   if entry is not None else (0.0, zeros))
            # j is unique, so the sort never compares pm or pn
            ranked.append((-read[0], pm.first_ts, pm.first_seq, pm.last_seq,
                           j, pm, read[1]))
        ranked.sort()
        for _, _, _, _, _, pm, pn in ranked:
            if not pm.alive:
                continue
            bits = pm.pattern_bits
            idx = idx_of.get(bits)
            if idx is None:
                idx = idx_of[bits] = tuple(
                    i for i in sketch.pattern_indices(bits) if i in spend)
            t = theta(pm)
            for i in idx:
                if spend[i] + pn[i] * t > budget_map[i] + 1e-12:
                    index.plan.discard(pm)
                    audit.discarded += 1
                    break
            else:
                for i in idx:
                    spend[i] += pn[i] * t
                audit.kept += 1
    audit.spend = spend
    return audit
