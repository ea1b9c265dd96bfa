"""Overload detection, per-pattern overhead budgets, and the hierarchical
greedy selection of which partial matches survive a reduction.

When some pattern's EWMA latency reaches its bound, the overloaded
patterns form a bitmap b_OL.  Clusters whose psd does not intersect b_OL
are untouched.  The remaining clusters are drained in descending psd
value (most-shared first); within a cluster PMs come off a max-heap by
contribution, and a PM is kept only while every overloaded pattern it
serves stays within its overhead budget

    B_i = (L_i / l_i) * T_i

where T_i is the current total overhead of pattern i over live PMs.
Infeasible PMs are discarded immediately (tombstoned); skipping them
cannot hurt later candidates because spend only grows.
"""

from __future__ import annotations

import heapq
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
    """B_i for each overloaded pattern i (others are unconstrained)."""
    n = monitor.n
    totals = [0.0] * n
    for _, members in index.live_clusters():
        for pm in members:
            v = cost.estimate(sketch, pm, theta)
            bits = pm.pattern_bits
            for i in range(n):
                if bits & (1 << (n - i - 1)):
                    totals[i] += v.overhead[i]
    out = {}
    for i in range(n):
        if monitor.latency_ms[i] >= bounds[i] and monitor.latency_ms[i] > 0:
            out[i] = (bounds[i] / monitor.latency_ms[i]) * totals[i]
    return out


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

    Returns an audit record with kept/discarded counts and per-pattern
    spend against budget.
    """
    n = index.n
    audit = SelectionAudit(ts=now_ts, b_ol=b_ol, budget=dict(budget_map))
    spend = {i: 0.0 for i in budget_map}

    overloaded = [(b, members) for b, members in index.live_clusters()
                  if b & b_ol]
    for b, members in index.live_clusters():
        if not b & b_ol:
            audit.kept += len(members)
    overloaded.sort(key=lambda bm: -bm[0])

    for _, members in overloaded:
        heap = []
        for j, pm in enumerate(members):
            s, neg_ts, neg_seq = cost.heap_key(sketch, pm, theta)
            heapq.heappush(heap, (-s, -neg_ts, -neg_seq, j, pm))
        while heap:
            _, _, _, _, pm = heapq.heappop(heap)
            if not pm.alive:
                continue
            v = cost.estimate(sketch, pm, theta)
            bits = pm.pattern_bits
            ok = True
            for i in spend:
                if bits & (1 << (n - i - 1)):
                    if spend[i] + v.overhead[i] > budget_map[i] + 1e-12:
                        ok = False
                        break
            if ok:
                for i in spend:
                    if bits & (1 << (n - i - 1)):
                        spend[i] += v.overhead[i]
                audit.kept += 1
            else:
                index.plan.discard(pm)
                audit.discarded += 1
    audit.spend = spend
    return audit
