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

Under ``consume``, the seqs of the elements bound into an emitted
complete match are kept per pattern (``consumed``); matches containing
a consumed element are rejected at emission, which is equivalent to
dropping their records.

Keyed buffers: each state keeps its records in buckets keyed by the SAME
attributes all its patterns share (``PlanState.key_attrs``), so an element
is evaluated only against the bucket of its own key.  Records of other
keys would fail SAME for every pattern, so the outcome is the same as a
scan of the whole state.  A child whose state is keyed like its parent's
goes into the bucket the element probed.

Sweeps: each engine generates Python source for one sweep function per
trigger event type (``sweep``) and compiles it once, in ``__init__``; the
code depends on the engine's selection policies and binds its objects
by namespace names, so engines of equal plans and policies generate
equal text.
A sweep evaluates the guards, buffers its children and counts them
(``EngineCounters.pms_created``), and sums the step's work units
(``StepResult.units``) as it charges them.  When it accepted no match
and took no skip-till-next parent, as for most elements, it returns the
finished ``StepResult`` itself, which ``step`` passes on; otherwise it
returns its parts, and ``step`` applies skip-till-next, then sorts the
complete matches, applies consumption and returns them with their keys
(``StepResult.match_keys``).  ``Engine.source`` is
the text, registered with ``linecache`` so that a traceback through a
sweep shows the generated line.  Patterns whose guards compute the same
conjuncts share one ``checks`` tuple (``plan.merge``), which a record
evaluates once for all of them.  The conjuncts no guard can decide (a
SUM over a final Kleene step, the plan's residual) are generated code
too, checked on the transition into the accepting state: a match that
fails them is never accepted, so it is neither emitted nor consumed.
``step`` evaluates no predicate.  Math faults are counted in ``diag``,
once per evaluation.

Side state: the negation history holds the elements of each negated
type, read only by the gap checks.  The sweep of that type appends to
it, first thing; a negated type that triggers no edge gets a sweep that
does only that, so ``step`` never looks the history up.  The history
and the consumed seqs stay bounded by the alive records, whatever the
timestamps do.  Every 512 elements one scan
of the alive records finds the oldest first and the oldest last
element.  A later match grows from an alive record or starts after
``now``, so it holds no element before its record's first one: the
consumed seqs below the oldest first element go.  A gap check reads only
elements after its record's last one: the history up to the oldest
last element goes.

Expiry: every buffered record is queued by deadline, once per distinct
window of its patterns (``plan.DeadlineQueue``), so ``expire`` costs
O(expired), not a sweep of every buffer; most children join their
parent's deadline slot (``sweep``).  Windows are also checked at
extension time, so when ``expire`` runs changes no match; it changes
when a state's live count drops, and so the work units, which is why the
runner keeps one cadence (``runner.EXPIRE_EVERY``).  A record leaves its
state's buffer and bucket the moment it dies, in O(1): ``expire`` removes
the dead records of each expired deadline slot inline, and every other
death goes through ``ExecutionPlan.discard``.  Buffer and bucket are
dicts used as ordered sets, so no state holds a dead record and nothing
is compacted.  Only the deadline slots, and a walk a reduction carries,
may still hold one; both skip it.

Latency: ``measure`` runs a fold generated once per monitor from the
plan's psd (``sweep.generate_fold``), unrolled over the patterns: the
same float operations in the same order as a loop over share lists,
reading the monitor's lists at every call.

No reference cycles: ``sweep.load`` takes every generated function out
of the globals it runs in, a generated function reaches another only as
a default argument, and a record points only at its parent.  So the
per-element loops run with the cyclic collector paused.

Work units, the cost measure that synthetic latency is made of: for each
edge an element triggers, the alive records in the edge's source state
(all of them, not only the probed bucket, so a unit means what it meant
for a full scan), one per start-edge evaluation, and one per record
created.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

from . import sweep
# not called here; perfbench's layer probe wraps engine.eval_predicate
from .expr import eval_predicate  # noqa: F401
from .model import (ConsumptionPolicy, DataElement, SelectionPolicy,
                    pattern_bit)
from .plan import ExecutionPlan


class LatencyMonitor:
    """Per-pattern EWMA latency, its sum over the measured elements
    (``lat_sum``) and cumulative per-state work counters."""

    def __init__(self, n: int, alpha: float = 0.2):
        self.n = n
        self.alpha = alpha
        self.latency_ms = [0.0] * n
        self.lat_sum = [0.0] * n
        self.state_work = {}
        self.fold = None    # generated at the first measure (sweep)


def measure(monitor: LatencyMonitor, elapsed_ms: float, work_by_state: dict,
            plan: ExecutionPlan):
    """Apportion elapsed time to patterns via the worked states' PSD bits,
    split evenly among sharers, fold into the EWMA and add the EWMA to
    ``lat_sum``; an element without work only adds to ``lat_sum``.  The
    fold is generated from the plan's psd at the first call
    (``sweep.generate_fold``) and reads the monitor's lists and alpha
    at every call."""
    fold = monitor.fold
    if fold is None:
        source, ns = sweep.generate_fold(plan)
        fold = monitor.fold = sweep.load(source, ns, monitor, "fold")["fold"]
    fold(monitor, elapsed_ms, work_by_state)


@contextmanager
def collector_paused():
    """Pause the cyclic collector; on exit, resume it if it was on."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


# emission order: by element seqs, then pattern; stable on ties
_emission_order = itemgetter(0, 1)


@dataclass(slots=True)
class StepResult:
    """What one ``Engine.step`` did.  Most steps are finished by their
    generated sweep, by ``object.__new__`` and one store per field
    (``sweep._finished``); a field added here is filled there too."""
    new_pms: list
    complete: list      # (pattern_id, MatchRecord)
    work: dict          # state_id -> units this step
    match_keys: list    # of each complete match: its element seqs
    units: int          # the step's total work, sum(work.values())


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
        self._consumes = ConsumptionPolicy.CONSUME in self.consumption
        self.windows = [p.window for p in plan.patterns]
        self.bit = [pattern_bit(i, n) for i in range(n)]
        self.consumed = [set() for _ in range(n)]   # seqs, per pattern
        # negated type -> ([seq], [element]), read by the gap checks
        self.history = {nc.neg_type: ([], []) for e in plan.edges
                        for g in e.guards.values() for nc in g.neg_checks}
        self.counters = EngineCounters()
        self.diag = plan.diag
        self._trim_at = 0
        self.source, namespace = sweep.generate(self)
        self._sweeps = sweep.load(self.source, namespace, self,
                                  "sweep")["SWEEPS"]

    # ------------------------------------------------------------- windows

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Remove records outside every owning pattern's window; clears
        per-pattern bits on records with mixed ownership.  Costs
        O(expired): see ``ExecutionPlan.expire``."""
        evicted = self.plan.expire(now_seq, now_ts)
        self.counters.pms_expired += evicted
        self._trim_history(now_seq)
        return evicted

    def _trim_history(self, now_seq: int):
        """Every 512 elements, drop the history elements and consumed
        seqs no later match can read (see the module docstring)."""
        if now_seq < self._trim_at:
            return
        self._trim_at = now_seq + 512
        if not self.history and not any(self.consumed):
            return
        first = last = now_seq
        for r in self.plan.live_records():
            if r.first_seq < first:
                first = r.first_seq
            if r.last_seq < last:
                last = r.last_seq
        for seqs, elems in self.history.values():
            cut = bisect_right(seqs, last)
            if cut:
                del seqs[:cut]
                del elems[:cut]
        self.consumed = [{s for s in used if s >= first}
                         for used in self.consumed]

    # ---------------------------------------------------------------- step

    def step(self, d: DataElement) -> StepResult:
        """Evaluate one element against the bucket of its key in each
        state its type triggers; windows must already be expired for d
        (call expire first)."""
        kernel = self._sweeps.get(d.type_tag)
        if kernel is None:
            return StepResult([], [], {}, [], 0)
        res = kernel(d, d.seq_index, d.timestamp)
        if type(res) is StepResult:
            return res
        work, new_records, accept, taken_bits, units = res
        counters = self.counters
        for rec, taken in taken_bits:
            rec.pattern_bits &= ~taken
            if rec.pattern_bits == 0 and rec.alive:
                self.plan.discard(rec)
                counters.pms_policy_dropped += 1

        # deterministic emission order, then per-pattern consumption
        complete, keys = [], []
        if accept:
            accept.sort(key=_emission_order)
            if self._consumes:
                accept = self._unconsumed(accept)
            for seqs, pid, rec in accept:
                complete.append((pid, rec))
                keys.append(seqs)
            counters.cms_emitted += len(accept)

        return StepResult(new_records, complete, work, keys, units)

    def _unconsumed(self, accept: list) -> list:
        """The accepted matches, in order, but those of a consuming
        pattern that hold an element one of its matches consumed; marks
        the elements of the kept ones consumed."""
        out = []
        for a in accept:
            seqs, pid, _ = a
            if self.consumption[pid] is ConsumptionPolicy.CONSUME:
                used = self.consumed[pid]
                if not used.isdisjoint(seqs):
                    continue
                used.update(seqs)
            out.append(a)
        return out

    def live_pm_count(self) -> int:
        return sum(len(s.buffer) for s in self.plan.states)


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
    with collector_paused():
        for i, d in enumerate(stream):
            if i % expire_every == 0:
                eng.expire(d.seq_index, d.timestamp)
            res = eng.step(d)
            for pid, rec in res.complete:
                out[pid].append(rec)
    return out
