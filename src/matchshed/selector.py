"""Overload detection, per-pattern overhead budgets, and the greedy
selection of which partial matches survive a reduction.

When some pattern's EWMA latency reaches its bound, the overloaded
patterns form a bitmap b_OL.  Clusters whose psd does not intersect b_OL
are untouched.  The remaining clusters are drained in descending psd
value, the bitmap read as a number with pattern 1 as its highest bit: in
the DS2 plan, clusters [1000] and [0100] drain before [0011].  Within a
cluster PMs are ranked by contribution, and a PM is kept only while
every overloaded pattern it serves stays within its overhead budget

    B_i = (L_i / l_i) * T_i

where T_i is the current total overhead of pattern i over live PMs.
Infeasible PMs are discarded immediately (tombstoned); skipping them
cannot hurt later candidates because spend only grows.

Cost of a reduction: one walk over the live PMs of the clusters that
serve an overloaded pattern.  ``budgets`` makes it, and per PM reads
the key once, calls theta once, adds the overhead to T_i and builds the
rank tuple; each distinct sketch key is read once (its contribution sum
and its pn counters).  The budgets it returns carry the walk, so
``select`` only sorts each cluster's ranks once and drains them; every
other cluster is counted kept from its states' live counts.  A cluster
is read from its states' buffers (``psd.ClusterIndex``)."""

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


def _walk(index: ClusterIndex, sketch, theta, b_ol: int, budgeted):
    """One pass over the live PMs of the clusters meeting ``b_ol``.

    Returns ``(ranks, totals)``.  ``ranks`` maps each such cluster to one
    row per live member, ``(-contribution, first_ts, first_seq, last_seq,
    position, pm, pn, theta(pm), idx)``, where ``idx`` lists the patterns
    of ``budgeted`` the PM serves.  ``totals[i]`` sums ``pn_i * theta(pm)``
    over those PMs serving pattern i whose key the sketch has seen, in
    cluster order: clusters as in ``index.states``, each state's buffer in
    order.
    """
    n = index.n
    table = sketch.table
    zeros = (0.0,) * n
    reads = {}   # key -> (-contribution sum, pn)
    idx_of = {}  # pattern_bits -> budgeted patterns it serves
    totals = [0.0] * n
    ranks = {}
    for b, states in index.states.items():
        if not b & b_ol:
            continue
        rows = ranks[b] = []
        for s in states:
            for pm in s.buffer:
                if not pm.alive:
                    continue
                k = pm.key or cost.attr_key(sketch, pm)
                read = reads.get(k)
                if read is None:
                    entry = table.get(k)
                    read = reads[k] = ((-sum(entry.cn), entry.pn)
                                       if entry is not None else (-0.0, zeros))
                bits = pm.pattern_bits
                idx = idx_of.get(bits)
                if idx is None:
                    idx = idx_of[bits] = tuple(
                        i for i in sketch.pattern_indices(bits)
                        if i in budgeted)
                pn = read[1]
                t = theta(pm)
                if pn is not zeros:
                    for i in idx:
                        totals[i] += pn[i] * t
                # the position is unique, so the sort never compares pm
                rows.append((read[0], pm.first_ts, pm.first_seq,
                             pm.last_seq, len(rows), pm, pn, t, idx))
    return ranks, totals


class Budgets(dict):
    """B_i by overloaded pattern, carrying the walk that summed the T_i
    (``walk``: the index, sketch, b_OL and theta it read, and its ranks)
    for one ``select`` to drain.

    The walk holds only if nothing is inserted into the index and the
    sketch is not updated between ``budgets`` and ``select``: a PM
    inserted in between is left out of the selection, and ranks and
    overheads stay those the sketch gave at ``budgets``.  Discards in
    between are the only change ``select`` allows for."""

    __slots__ = ("walk",)


def budgets(index: ClusterIndex, sketch, monitor, bounds,
            theta=cost.theta_constant) -> Budgets:
    """B_i for each overloaded pattern i (others are unconstrained).

    T_i sums, PM by PM in cluster order, the overhead ``pn_i * theta(pm)``
    of every live PM serving pattern i; a PM whose key the sketch has not
    seen adds nothing.  A PM's ``pattern_bits`` lie within its state's
    psd, so a cluster whose psd has no overloaded pattern is skipped.
    The same walk ranks the PMs it reads, for ``select``.
    """
    n = monitor.n
    lat = monitor.latency_ms
    over = [i for i in range(n) if lat[i] >= bounds[i] and lat[i] > 0]
    over_bits = sum(1 << (n - i - 1) for i in over)
    ranks, totals = _walk(index, sketch, theta, over_bits, over)
    out = Budgets((i, (bounds[i] / lat[i]) * totals[i]) for i in over)
    out.walk = (index, sketch, over_bits, theta, ranks)
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

    Overloaded clusters are drained in descending psd value.  Within one,
    PMs are ranked by the key ``(-contribution, first_ts, first_seq,
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

    ``budget_map`` from ``budgets`` carries the walk that ranked the PMs,
    and this call drains it, skipping PMs discarded since; a plain dict,
    a walk already drained, or one made for another ``b_ol``, index,
    sketch or theta gets a fresh walk.  A carried walk is trusted as it
    is otherwise: call ``select`` with no insert into the index and no
    sketch update since ``budgets`` (see ``Budgets``).
    """
    n = index.n
    audit = SelectionAudit(ts=now_ts, b_ol=b_ol, budget=dict(budget_map))
    walk = getattr(budget_map, "walk", None)
    if walk is not None:
        budget_map.walk = None  # one drain per walk
    if walk is not None and walk[:4] == (index, sketch, b_ol, theta):
        ranks = walk[4]
    else:
        ranks = _walk(index, sketch, theta, b_ol, budget_map)[0]

    for b, states in index.states.items():
        if not b & b_ol:
            audit.kept += sum(s.live for s in states)
    spend = [0.0] * n
    limit = [0.0] * n
    for i, budget in budget_map.items():
        limit[i] = budget + 1e-12
    discard = index.plan.discard
    kept = discarded = 0
    for b in sorted(ranks, reverse=True):
        rows = ranks[b]
        rows.sort()
        for _, _, _, _, _, pm, pn, t, idx in rows:
            if not pm.alive:
                continue
            for i in idx:
                if spend[i] + pn[i] * t > limit[i]:
                    discard(pm)
                    discarded += 1
                    break
            else:
                for i in idx:
                    spend[i] += pn[i] * t
                kept += 1
    audit.kept += kept
    audit.discarded = discarded
    audit.spend = {i: spend[i] for i in budget_map}
    return audit
