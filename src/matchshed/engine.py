"""Per-element evaluation: advance partial matches, emit complete matches,
enforce windows and selection/consumption policies, track latency.

Policy semantics:

* skip-till-any forks: the parent record stays buffered after an extension.
* skip-till-next consumes: a record takes the first qualifying element; the
  extended pattern's bit is cleared on the parent.  When one element
  qualifies for both Kleene extension and closing, the record forks into
  both continuations; this is the one ambiguity skip-till-next keeps, and
  it is what makes every strict-contiguity match also a skip-till-next
  match.
* strict-contiguity requires seq_index adjacency on every extension.

Under ``consume``, elements bound into an emitted complete match are
tombstoned per pattern; matches containing a tombstoned element are
rejected at emission, which is equivalent to dropping their records.
A tombstone is kept only while a later match of its pattern could still
contain the element, so the sets stay bounded by the window.

Keyed buffers: each state keeps its records in buckets keyed by the SAME
attributes all its patterns share (``PlanState.key_attrs``), so an element
is evaluated only against the bucket of its own key.  Records of other
keys would fail SAME for every pattern, so the outcome is the same as a
scan of the whole state.  A child whose state is keyed like its parent's
goes into the bucket the element probed.

Guards: each edge's per-pattern guards are flattened once per engine.
Patterns whose guards compute the same conjuncts share one ``checks``
tuple (``plan.merge``), which a record evaluates once for all of them.
At emission only the residual conjuncts no guard can decide (a SUM over
a final Kleene step) go through ``expr.eval_predicate``.  Math faults on
both paths are counted in ``diag``, once per evaluation.

Expiry: every buffered record is queued by deadline, once per distinct
window of its patterns (``plan.DeadlineQueue``), so ``expire`` costs
O(expired), not a sweep of every buffer.  Windows are also checked at
extension time, so when ``expire`` runs changes no match; it changes
when ``PlanState.live`` drops, and so the work units, which is why the
runner keeps its ``expire_every`` cadence.  Tombstoned records are
compacted out of a state's buffers lazily, once they outnumber its alive
records by more than a small slack.

Work units, the cost measure that synthetic latency is made of: for each
edge an element triggers, the alive records in the edge's source state
(all of them, not only the probed bucket, so a unit means what it meant
for a full scan), one per start-edge evaluation, and one per record
created.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .expr import eval_predicate
from .model import (ConsumptionPolicy, DataElement, MatchRecord,
                    SelectionPolicy, WindowKind, pattern_bit)
from .plan import ExecutionPlan


@dataclass
class LatencyMonitor:
    """Per-pattern EWMA latency plus cumulative per-state work counters."""
    n: int
    alpha: float = 0.2
    latency_ms: list = None
    state_work: dict = None

    def __post_init__(self):
        if self.latency_ms is None:
            self.latency_ms = [0.0] * self.n
        if self.state_work is None:
            self.state_work = {}
        # psd -> (indices of the patterns with their bit set, ascending;
        # popcount), filled by measure
        self.sharers = {}


def measure(monitor: LatencyMonitor, elapsed_ms: float, work_by_state: dict,
            plan: ExecutionPlan):
    """Apportion elapsed time to patterns via the worked states' PSD bits,
    split evenly among sharers, and fold into the EWMA."""
    state_work = monitor.state_work
    total = 0
    for sid, w in work_by_state.items():
        state_work[sid] = state_work.get(sid, 0) + w
        total += w
    if total == 0:
        return
    n = monitor.n
    share = [0.0] * n
    states = plan.states
    cache = monitor.sharers
    for sid, w in work_by_state.items():
        psd = states[sid].psd
        if psd == 0:
            continue
        got = cache.get(psd)
        if got is None:
            got = cache[psd] = (
                tuple(i for i in range(n) if psd & (1 << (n - i - 1))),
                psd.bit_count())
        sharers, count = got
        part = elapsed_ms * (w / total) / count
        for i in sharers:
            share[i] += part
    a = monitor.alpha
    keep = 1 - a
    lat = monitor.latency_ms
    for i in range(n):
        lat[i] = keep * lat[i] + a * share[i]


# emission order: by element seqs, then pattern; stable on ties
_emission_order = itemgetter(0, 1)


@dataclass
class StepResult:
    new_pms: list
    complete: list      # (pattern_id, MatchRecord)
    work: dict          # state_id -> units this step
    rejected_consumed: int = 0


@dataclass
class EngineCounters:
    pms_created: int = 0
    pms_expired: int = 0
    pms_policy_dropped: int = 0
    pms_shed: int = 0
    cms_emitted: int = 0


class Engine:
    """Owns the plan's buffers and evaluates one element at a time."""

    def __init__(self, plan: ExecutionPlan,
                 selection: SelectionPolicy = SelectionPolicy.SKIP_TILL_ANY,
                 consumption: ConsumptionPolicy = ConsumptionPolicy.REUSE):
        self.plan = plan
        n = plan.n
        self.n = n
        self.selection = [p.selection or selection for p in plan.patterns]
        self.consumption = [p.consumption or consumption
                            for p in plan.patterns]
        self.windows = [p.window for p in plan.patterns]
        self.bit = [pattern_bit(i, n) for i in range(n)]
        self.consumed = [{} for _ in range(n)]   # seq -> ts, per pattern
        self.history = {}    # type_tag -> ([seq], [element])
        self.counters = EngineCounters()
        self.diag = plan.diag
        self.emit_counter = 0
        self._max_count_window = max(
            (w.size for w in self.windows if w.kind is WindowKind.COUNT),
            default=None)
        self._max_time_window = max(
            (w.size for w in self.windows if w.kind is WindowKind.TIME),
            default=None)
        self._hist_trim_at = 0
        self._last_ts = float("-inf")
        self._ts_sorted = True   # no element's timestamp has decreased yet
        self._edges = {t: [self._flatten(e) for e in edges]
                       for t, edges in plan.edges_by_trigger.items()}

    def _flatten(self, edge) -> tuple:
        """What ``step`` reads of an edge: ``(source state, target state
        id, action, guards, skip-till-next mask, same key)``.  Each guard
        is ``(bit, checks, neg_checks, count window?, window size,
        strict?)``, and guards sharing a ``checks`` tuple are adjacent.
        ``same key`` says whether the target is keyed like the source."""
        plan = self.plan
        first = {}   # id(checks) -> rank of its first guard
        for g in edge.guards.values():
            first.setdefault(id(g.checks), len(first))
        guards = []
        next_mask = 0
        for pid, g in sorted(edge.guards.items(),
                             key=lambda pg: first[id(pg[1].checks)]):
            w = self.windows[pid]
            sel = self.selection[pid]
            guards.append((self.bit[pid], g.checks, g.neg_checks,
                           w.kind is WindowKind.COUNT, w.size,
                           sel is SelectionPolicy.STRICT_CONTIGUITY))
            if sel is SelectionPolicy.SKIP_TILL_NEXT:
                next_mask |= self.bit[pid]
        src = plan.states[edge.from_id]
        same_key = src.key_attrs == plan.states[edge.to_id].key_attrs
        return (src, edge.to_id, edge.action, tuple(guards), next_mask,
                same_key)

    # ------------------------------------------------------------- windows

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Remove records outside every owning pattern's window; clears
        per-pattern bits on records with mixed ownership.  Costs
        O(expired): see ``ExecutionPlan.expire``."""
        evicted = self.plan.expire(now_seq, now_ts)
        self.counters.pms_expired += evicted
        self._trim_history(now_seq, now_ts)
        return evicted

    def _trim_history(self, now_seq: int, now_ts: float):
        """Drop history elements that no gap check can reach any more,
        and consumed elements that no match can contain, every 512
        elements.

        A gap check reads elements after a record's first element, and a
        record whose first element is older than its window has just been
        expired with the same ``now``.  For a time window "older" is only
        known from the elements in between while timestamps have not
        decreased, so time windows trim only then."""
        if now_seq < self._hist_trim_at:
            return
        self._hist_trim_at = now_seq + 512
        self._trim_consumed(now_seq, now_ts)
        max_time = self._max_time_window
        if max_time is not None and not self._ts_sorted:
            return
        max_count = self._max_count_window
        for seqs, elems in self.history.values():
            cut = len(seqs)
            if max_count is not None:
                cut = bisect_left(seqs, now_seq - max(max_count, 1) - 1)
            if max_time is not None:
                k = 0
                while k < cut and now_ts - elems[k].timestamp > max_time:
                    k += 1
                cut = k
            if cut:
                del seqs[:cut]
                del elems[:cut]

    def _trim_consumed(self, now_seq: int, now_ts: float):
        """Drop consumed elements that no later match of their pattern can
        contain.  Such a match starts within its window of ``now``, so
        after elements older than the window, which the same ``now`` has
        just expired every record of; for a time window that order is
        known only while timestamps have not decreased."""
        for pid, (used, w) in enumerate(zip(self.consumed, self.windows)):
            if not used:
                continue
            if w.kind is WindowKind.COUNT:
                cut = now_seq - w.size
                self.consumed[pid] = {s: t for s, t in used.items()
                                      if s >= cut}
            elif self._ts_sorted:
                cut = now_ts - w.size
                self.consumed[pid] = {s: t for s, t in used.items()
                                      if t >= cut}

    # ---------------------------------------------------------------- step

    def _gap_clear(self, neg_checks, slots, lo: int, hi: int) -> bool:
        """True if no negated-type element in (lo, hi) blocks the transition."""
        for nc in neg_checks:
            hist = self.history.get(nc.neg_type)
            if hist is None:
                continue
            seqs, elems = hist
            a = bisect_right(seqs, lo)
            b = bisect_left(seqs, hi)
            if not nc.blockers:
                if a < b:
                    return False
                continue
            for k in range(a, b):
                ne = elems[k]
                if all(blk(slots, ne) for blk in nc.blockers):
                    return False
        return True

    def step(self, d: DataElement) -> StepResult:
        """Evaluate one element against the bucket of its key in each
        state its type triggers; windows must already be expired for d
        (call expire first)."""
        plan = self.plan
        seq = d.seq_index
        ts = d.timestamp
        if ts < self._last_ts:
            self._ts_sorted = False
        self._last_ts = ts
        hist = self.history.get(d.type_tag)
        if hist is None:
            hist = self.history[d.type_tag] = ([], [])
        hist[0].append(seq)
        hist[1].append(d)

        work = {}
        new_records = []
        new_keys = []     # per new record: its bucket key, or None
        taken_bits = []   # (record, bits) cleared after the edge sweep
        attrs = d.attrs

        for state, to_id, action, guards, next_mask, same_key in \
                self._edges.get(d.type_tag, ()):
            from_id = state.state_id
            if from_id == plan.start_id:
                slots = ((d,),) if action == "kleene-enter" else (d,)
                passed = 0
                last = None
                for g in guards:
                    checks = g[1]
                    if checks is not last:
                        last = checks
                        ok = True
                        for c in checks:
                            if not c(slots):
                                ok = False
                                break
                    if ok:
                        passed |= g[0]
                work[from_id] = work.get(from_id, 0) + 1
                if passed:
                    new_records.append(MatchRecord(passed, slots, to_id,
                                                   seq, ts, seq, ts))
                    new_keys.append(None)
                    work[to_id] = work.get(to_id, 0) + 1
                continue

            key = tuple([attrs.get(a) for a in state.key_attrs])
            child_key = key if same_key else None
            for rec in state.buckets.get(key, ()):
                if not rec.alive:
                    continue
                bits = rec.pattern_bits
                slots = None
                passed = 0
                last = None
                for bit, checks, neg_checks, by_count, size, strict in guards:
                    if not bits & bit:
                        continue
                    delta = seq - rec.first_seq if by_count else \
                        ts - rec.first_ts
                    if not (delta <= size):
                        continue
                    if strict and seq != rec.last_seq + 1:
                        continue
                    if slots is None:
                        if action == "single":
                            slots = rec.slots + (d,)
                        elif action == "kleene-enter":
                            slots = rec.slots + ((d,),)
                        else:  # kleene-extend
                            slots = rec.slots[:-1] + (rec.slots[-1] + (d,),)
                    # a tuple shared with the previous guard: its result
                    if checks is not last:
                        last = checks
                        ok = True
                        for c in checks:
                            if not c(slots):
                                ok = False
                                break
                    if ok and (not neg_checks or self._gap_clear(
                            neg_checks, slots, rec.last_seq, seq)):
                        passed |= bit
                if passed:
                    new_records.append(MatchRecord(
                        passed, slots, to_id, rec.first_seq, rec.first_ts,
                        seq, ts, parent=rec))
                    new_keys.append(child_key)
                    work[to_id] = work.get(to_id, 0) + 1
                    # skip-till-next: the parent's bit moves to the child,
                    # but only once every edge has seen this element so a
                    # Kleene record can fork into extend and close
                    taken = passed & next_mask
                    if taken:
                        taken_bits.append((rec, taken))
            # a full scan's count: every alive record of the state
            if state.live > 0:
                work[from_id] = work.get(from_id, 0) + state.live

        for rec, taken in taken_bits:
            rec.pattern_bits &= ~taken
            if rec.pattern_bits == 0 and rec.alive:
                plan.discard(rec)
                self.counters.pms_policy_dropped += 1

        accept = []
        states = plan.states
        self.counters.pms_created += len(new_records)
        for rec, key in zip(new_records, new_keys):
            plan.insert(rec, key)
            accepting = states[rec.state_id].accepting_for
            if accepting:
                seqs = None
                for pid in accepting:
                    if rec.pattern_bits & self.bit[pid]:
                        if seqs is None:
                            seqs = rec.seq_tuple()
                        accept.append((seqs, pid, rec))

        # deterministic emission order, then per-pattern consumption
        complete = []
        rejected = 0
        accept.sort(key=_emission_order)
        residuals = plan.residuals
        for seqs, pid, rec in accept:
            residual = residuals.get((pid, rec.state_id))
            if residual is not None:
                names, pred = residual
                if not eval_predicate(pred, dict(zip(names, rec.slots)),
                                      self.diag):
                    continue
            if self.consumption[pid] is ConsumptionPolicy.CONSUME:
                used = self.consumed[pid]
                if any(s in used for s in seqs):
                    rejected += 1
                    continue
                for e in rec.elements():
                    used[e.seq_index] = e.timestamp
            rec.emit_index = self.emit_counter
            self.emit_counter += 1
            self.counters.cms_emitted += 1
            complete.append((pid, rec))

        return StepResult(new_records, complete, work, rejected)

    def live_pm_count(self) -> int:
        return sum(s.live for s in self.plan.states)


def golden_run(stream, plan: ExecutionPlan,
               selection: SelectionPolicy = SelectionPolicy.SKIP_TILL_ANY,
               consumption: ConsumptionPolicy = ConsumptionPolicy.REUSE,
               expire_every: int = 1):
    """Exhaustive evaluation (no state reduction); complete matches per
    pattern in emission order.  Windows are expired before every
    ``expire_every``-th element; extension-time window checks keep the
    matches the same at any cadence."""
    eng = Engine(plan, selection, consumption)
    out = {p.id: [] for p in plan.patterns}
    for i, d in enumerate(stream):
        if i % expire_every == 0:
            eng.expire(d.seq_index, d.timestamp)
        res = eng.step(d)
        for pid, rec in res.complete:
            out[pid].append(rec)
    return out
