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
Infeasible PMs are discarded immediately; skipping them cannot hurt
later candidates because spend only grows.

Cost of a reduction: one walk over the PMs of the clusters that serve
an overloaded pattern, one sort per such cluster and one drain, each
PM discarded leaving its state's buffer and bucket in O(1).  The
kernel is Python source generated per cluster index (``generate``), at
the index's first guided reduction, and unrolled over its clusters and
patterns: totals, limits and spend are locals, a flag per pattern says
whether it is budgeted, and a cluster of one pattern tests no pattern
bits.  ``budgets`` runs its ``budget``, which computes the flags and
b_OL, walks, and fills B_i: per PM the walk reads the sketch entry the
record holds (``MatchRecord.entry``, none for a record never
credited), adds its pn counters, the overhead, to T_i and builds the
rank tuple; it reads no sketch.  The budgets it returns carry the
walk, so ``select`` only sorts each cluster's ranks once and drains
them, discarding in place; every other cluster is counted kept from
its buffer sizes.  A cluster is read from its states' buffers
(``psd.ClusterIndex``), which hold exactly the alive PMs."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import sweep
from .model import pattern_bit, render_bitmap
from .psd import ClusterIndex


def trigger(monitor, bounds) -> int:
    """Overload label: bit i set when l_i >= L_i."""
    n = monitor.n
    b = 0
    for i in range(n):
        if monitor.latency_ms[i] >= bounds[i]:
            b |= 1 << (n - i - 1)
    return b


def generate(index: ClusterIndex) -> tuple:
    """The source of the reduction kernel of ``index`` and the namespace
    to run it in.  It defines three functions, unrolled over the clusters
    (``c<j>`` in ``index.states`` order) and patterns:

    * ``walk(b_ol, flags)`` visits the PMs of each cluster meeting
      ``b_ol``, state by state, each state's buffer in order, and
      returns ``(ranks, totals)``: one list of rows per cluster, ``(-sum
      of cn, first_ts, first_seq, last_seq, position, pm, pn)``, and per
      pattern i the sum of ``pn_i`` over the PMs with an entry that
      serve i, where ``flags[i]`` says i is budgeted.  A PM's entry is
      ``pm.entry``; a PM never credited has none, ranks at -0.0 and its
      pn is ``ZEROS``.
    * ``budget(lat, bounds, out)`` flags each pattern i with ``l_i >= L_i
      and l_i > 0``, walks once for the b_OL of the flags, fills ``out``
      with ``B_i = (L_i / l_i) * T_i`` in ascending i and returns ``(b_ol,
      ranks)``.
    * ``drain(ranks, b_ol, flags, limits)`` counts the clusters missing
      ``b_ol`` kept from their buffer sizes, then sorts and drains the
      ranked clusters in descending psd value, discarding a PM
      (``ExecutionPlan.discard``) once a budgeted pattern it serves would
      pass its limit; it returns ``(kept, discarded, spend)``.

    A cluster of one pattern tests no pattern bits."""
    n = index.n
    plan = index.plan
    ns = {"ZEROS": (0.0,) * n, "DISCARD": plan.discard}
    clusters = list(index.states.items())
    pats = [tuple(i for i in range(n) if b & pattern_bit(i, n))
            for b, _ in clusters]
    for _, states in clusters:
        ns.update((f"S{s.state_id}", s) for s in states)
    k = len(clusters)

    def names(fmt, count=n):
        """``fmt`` formatted with 0 .. count-1, comma separated; a
        trailing comma after a single name makes a one-tuple target."""
        return ", ".join(map(fmt.format, range(count))) \
            + ("," if count == 1 else "")

    def served(i, single):
        """The test that a PM serves budgeted pattern i."""
        return f"u{i}" if single else f"u{i} and bits & {pattern_bit(i, n)}"

    row = ", pm.first_ts, pm.first_seq, pm.last_seq, len(rows), pm, {}"
    out = ["def walk(b_ol, flags):",
           f"    {names('u{}')} = flags",
           "    " + " = ".join(map("tot{}".format, range(n))) + " = 0.0"]
    out += [f"    r{j} = []" for j in range(k)]
    for j, (b, states) in enumerate(clusters):
        single = len(pats[j]) == 1
        out += [f"    if b_ol & {b}:  # c{j} {render_bitmap(b, n)}",
                f"        rows = r{j}"]
        if len(states) == 1:
            out.append(f"        for pm in S{states[0].state_id}.buffer:")
            pad = " " * 12
        else:
            out += ["        for buf in " + ", ".join(
                        f"S{s.state_id}.buffer" for s in states) + ":",
                    "            for pm in buf:"]
            pad = " " * 16
        body = ["e = pm.entry",
                "if e is None:",
                "    rows.append((-0.0" + row.format("ZEROS") + "))",
                "    continue",
                "pn = e.pn"]
        if not single:
            body.append("bits = pm.pattern_bits")
        for i in pats[j]:
            body += [f"if {served(i, single)}:",
                     f"    tot{i} += pn[{i}]"]
        body.append("rows.append((-sum(e.cn)" + row.format("pn") + "))")
        out += [pad + line for line in body]
    out += [f"    return ({names('r{}', k)}), ({names('tot{}')})", ""]

    # walk is a default, not a global: no function is left in the globals
    out += ["def budget(lat, bounds, out, walk=walk):"]
    out += [f"    u{i} = lat[{i}] >= bounds[{i}] and lat[{i}] > 0"
            for i in range(n)]
    out += ["    b_ol = " + " | ".join(f"({pattern_bit(i, n)} if u{i} else 0)"
                                       for i in range(n)),
            f"    ranks, ({names('T{}')}) = walk(b_ol, ({names('u{}')}))"]
    for i in range(n):
        out += [f"    if u{i}:",
                f"        out[{i}] = (bounds[{i}] / lat[{i}]) * T{i}"]
    out += ["    return b_ol, ranks", ""]

    out += ["def drain(ranks, b_ol, flags, limits):",
            f"    {names('u{}')} = flags",
            f"    {names('lim{}')} = limits",
            f"    {names('r{}', k)} = ranks",
            "    " + " = ".join(map("sp{}".format, range(n))) + " = 0.0",
            "    kept = discarded = 0"]
    for j, (b, states) in enumerate(clusters):
        out += [f"    if not b_ol & {b}:",
                "        kept += " + " + ".join(f"len(S{s.state_id}.buffer)"
                                                for s in states)]
    for j in sorted(range(k), key=lambda j: -clusters[j][0]):
        b, states = clusters[j]
        single = len(pats[j]) == 1
        over = "\n                    or ".join(
            f"{served(i, single)} and sp{i} + pn[{i}] > lim{i}"
            for i in pats[j])
        out += [f"    if r{j}:  # c{j} {render_bitmap(b, n)}",
                f"        r{j}.sort()",
                f"        for _, _, _, _, _, pm, pn in r{j}:",
                "            if not pm.alive:",
                "                continue"]
        if not single:
            out.append("            bits = pm.pattern_bits")
        if len(pats[j]) > 1:
            over = f"({over})"
        out += [f"            if {over}:",
                "                DISCARD(pm)",
                "                discarded += 1",
                "                continue"]
        for i in pats[j]:
            out += [f"            if {served(i, single)}:",
                    f"                sp{i} += pn[{i}]"]
        out.append("            kept += 1")
    out.append(f"    return kept, discarded, ({names('sp{}')})")
    return "\n".join(out) + "\n", ns


def _kernel(index: ClusterIndex) -> tuple:
    """``(walk, budget, drain)`` of ``index``, generated at the first
    reduction that asks for them."""
    kernel = index.kernel
    if kernel is None:
        source, ns = generate(index)
        sweep.load(source, ns, index, "reduction")
        # no cycle: the functions leave the globals they run in
        kernel = index.kernel = (ns.pop("walk"), ns.pop("budget"),
                                 ns.pop("drain"))
    return kernel


class Budgets(dict):
    """B_i by overloaded pattern, carrying the walk that summed the T_i
    (``walk``: the index and b_OL it read, and its ranks) for one
    ``select`` to drain.

    The walk holds only if nothing is inserted into the index and no
    record is credited between ``budgets`` and ``select``: a PM inserted
    in between is left out of the selection, and ranks and overheads
    stay those the entries gave at ``budgets``.  Discards in between are
    the only change ``select`` allows for."""

    __slots__ = ("walk",)


def budgets(index: ClusterIndex, monitor, bounds) -> Budgets:
    """B_i for each overloaded pattern i (others are unconstrained).

    T_i sums, PM by PM in cluster order, the overhead ``pn_i`` of every
    PM serving pattern i, read from the entry it holds; a PM never
    credited adds nothing.  A PM's ``pattern_bits`` lie within its
    state's psd, so a cluster whose psd has no overloaded pattern is
    skipped.  The same walk ranks the PMs it reads, for ``select``; the
    kernel's ``budget`` does it all.
    """
    out = Budgets()
    b_ol, ranks = _kernel(index)[1](monitor.latency_ms, bounds, out)
    out.walk = (index, b_ol, ranks)
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


def select(index: ClusterIndex, b_ol: int, budget_map: dict,
           now_ts: float = 0.0) -> SelectionAudit:
    """Greedy budgeted selection; discarded PMs leave their states.

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
    overhead ``pn_i``.  Returns an audit record with
    kept/discarded counts and per-pattern spend against budget.

    ``budget_map`` from ``budgets`` carries the walk that ranked the PMs,
    and this call drains it, skipping PMs discarded since; a plain dict,
    a walk already drained, or one made for another ``b_ol`` or index
    gets a fresh walk.  A carried walk is trusted as it is
    otherwise: call ``select`` with no insert into the index and no
    credit since ``budgets`` (see ``Budgets``).
    """
    n = index.n
    walk, _, drain = _kernel(index)
    flags = [i in budget_map for i in range(n)]
    carried = getattr(budget_map, "walk", None)
    if carried is not None:
        budget_map.walk = None  # one drain per walk
    if carried is not None and carried[:2] == (index, b_ol):
        ranks = carried[2]
    else:
        ranks = walk(b_ol, flags)[0]
    limits = [0.0] * n
    for i, budget in budget_map.items():
        limits[i] = budget + 1e-12
    kept, discarded, spend = drain(ranks, b_ol, flags, limits)
    return SelectionAudit(now_ts, b_ol, kept, discarded,
                          {i: spend[i] for i in budget_map}, dict(budget_map))
