"""Execution plans: per-pattern state chains merged into a shared DAG.

States are keyed by their step-prefix signature (event types + step kinds,
predicates excluded), so patterns share states for common prefixes.  Negated
steps appear in the signature but create no state: they compile to
absence guards on the edge that skips over them.

A guard is a tuple of conjunct descriptors: comparisons whose bindings
are replaced by slot positions in the record's positional slot tuple,
then ``expr.Same`` nodes for the SAME attributes it checks.  The engine
generates the code that evaluates them (``sweep``).  Each non-start
state is keyed on the SAME attributes common to the patterns through it;
an edge leaving a keyed state leaves out the SAME checks on those
attributes, because the engine only meets records of the element's key.
``merge`` also sets each state's psd, the bits of the patterns whose
chains pass through it, and keeps each pattern's SAME attributes in
``ExecutionPlan.same_attrs``; the other layers read both from the plan.

Patterns whose guards on one edge have equal descriptors (the same
conjuncts over the same slot positions, the same SAME attributes) share
one ``checks`` tuple, so the engine evaluates it once per record for all
of them.  A conjunct that faults (division by zero, a domain error, an
overflow) is false and is counted in the plan's ``EvalDiagnostics``.
The conjuncts no guard can decide, a SUM over a final Kleene step, are
kept positional like the guards, per pattern and accepting state, as
the residual (``ExecutionPlan.residuals``); the engine's sweep checks it
on the transitions into that state.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from . import expr as ex
from .model import (MatchRecord, Pattern, StepKind, WindowKind, pattern_bit,
                    render_bitmap)


class PlanError(ValueError):
    pass


@dataclass
class NegCheck:
    """Absence guard for one negated step, evaluated over the gap.  An
    element of ``neg_type`` there blocks the transition when every
    blocker holds: a positional comparison, in which binding ``None`` is
    the gap element, or ``expr.Same(attr)``, the gap element's ``attr``
    equal to the first bound element's."""
    neg_type: str
    blockers: tuple


@dataclass
class EdgeGuard:
    """Per-pattern guard on a transition: conjunct descriptors plus
    absence checks for skipped negated steps.  Patterns with equal
    descriptors on an edge hold the same ``checks`` object."""
    checks: tuple      # positional ex.Cmp, then ex.Same
    neg_checks: tuple  # NegCheck


class PlanState:
    """One shared sub-pattern state and its partial-match store.

    ``buffer`` holds the state's alive records as an ordered set, a dict
    ``{record: None}`` in insertion order, and ``buckets`` the same
    records in the same order, one such dict per value of ``key_attrs``
    on the record's first element (``MatchRecord.bucket_key``).
    ``key_attrs`` are the SAME attributes every pattern through the
    state has; with none the state has the one bucket ``()``.  A record
    leaves both the moment it dies, and an emptied bucket is deleted, so
    ``len(buffer)`` is the state's live count.
    """

    __slots__ = ("state_id", "signature", "buffer", "buckets", "key_attrs",
                 "accepting_for", "psd", "depth")

    def __init__(self, state_id: int, signature: tuple):
        self.state_id = state_id
        self.signature = signature
        self.buffer = {}
        self.buckets = {}   # key tuple -> {record: None} of that key
        self.key_attrs = ()
        self.accepting_for = set()
        self.psd = 0
        # number of bound positional slots for records in this state
        self.depth = sum(1 for (_, k) in signature if k is not StepKind.NEGATED)

    def key_of(self, el) -> tuple:
        """Bucket key of the records whose first element is ``el``; for an
        incoming element, the key of the records it can extend."""
        attrs = el.attrs
        return tuple([attrs.get(a) for a in self.key_attrs])

    def __repr__(self):
        sig = "".join(t for t, _ in self.signature) or "start"
        return f"PlanState({self.state_id}, {sig})"


class DeadlineQueue:
    """The records of one window, ordered by when they leave it.

    A record leaves a window of ``size`` once ``now - start > size``,
    where its start is ``first_seq`` for a count window and ``first_ts``
    for a time window.  Records are grouped by start in ``slots``, and
    ``starts`` is a min-heap of the distinct starts, like the slots of a
    timing wheel: ``ExecutionPlan.expire`` pops the expired slots in
    O(expired), and a child, which shares its parent's start, only
    appends to a slot.
    """

    __slots__ = ("mask", "by_count", "size", "starts", "slots")

    def __init__(self, mask: int, by_count: bool, size: float):
        self.mask = mask            # bits of the patterns with this window
        self.by_count = by_count
        self.size = size
        self.starts = []            # heap of the distinct keys of slots
        self.slots = {}             # start -> records, in insertion order

    def push(self, rec: MatchRecord):
        start = rec.first_seq if self.by_count else rec.first_ts
        slot = self.slots.get(start)
        if slot is None:
            self.slots[start] = [rec]
            heappush(self.starts, start)
        else:
            slot.append(rec)


class PlanEdge:
    __slots__ = ("from_id", "to_id", "trigger_type", "action", "guards")

    # action: "single" | "kleene-enter" | "kleene-extend"
    def __init__(self, from_id: int, to_id: int, trigger_type: str,
                 action: str):
        self.from_id = from_id
        self.to_id = to_id
        self.trigger_type = trigger_type
        self.action = action
        self.guards = {}  # pattern_id -> EdgeGuard

    @property
    def step_kind(self) -> str:
        if self.action == "kleene-extend":
            return "kleene-extend"
        if any(g.neg_checks for g in self.guards.values()):
            return "negation-guard"
        return self.action

    def __repr__(self):
        return (f"PlanEdge({self.from_id}->{self.to_id} on "
                f"{self.trigger_type!r} {self.action})")


class ExecutionPlan:
    def __init__(self, states, edges, patterns, mode: str):
        self.states = states            # list[PlanState], index == state_id
        self.edges = edges              # list[PlanEdge]
        self.patterns = patterns        # list[Pattern]
        self.mode = mode                # view | separate
        self.start_id = 0
        self.edges_by_trigger = {}
        for e in edges:
            self.edges_by_trigger.setdefault(e.trigger_type, []).append(e)
        # kleene extension takes priority over closing under skip-till-next
        for lst in self.edges_by_trigger.values():
            lst.sort(key=lambda e: 0 if e.action == "kleene-extend" else 1)
        # pattern id -> its SAME attributes, in predicate order
        self.same_attrs = {}
        # (pattern_id, accepting state) -> its emission-only conjuncts,
        # positional, for the patterns that have any
        self.residuals = {}
        # faults of the engine's guards, blockers and residual checks
        self.diag = ex.EvalDiagnostics()
        # one deadline queue per distinct window (kind, size)
        masks = {}
        for p in patterns:
            w = (p.window.kind, p.window.size)
            masks[w] = masks.get(w, 0) | pattern_bit(p.id, len(patterns))
        self.deadlines = [DeadlineQueue(m, k is WindowKind.COUNT, size)
                          for (k, size), m in masks.items()]

    @property
    def n(self) -> int:
        return len(self.patterns)

    def live_records(self):
        """Alive records, state by state, each state's in insertion order."""
        for s in self.states:
            yield from s.buffer

    def insert(self, rec: MatchRecord):
        """Buffer a new record in its state, in the bucket of its first
        element's key and in the deadline queue of each window its
        patterns have.  The sweeps buffer their own children and call
        this only for a child keyed unlike its parent."""
        state = self.states[rec.state_id]
        first = rec.slots[0]
        key = rec.bucket_key = state.key_of(
            first[0] if type(first) is tuple else first)
        state.buffer[rec] = state.buckets.setdefault(key, {})[rec] = None
        bits = rec.pattern_bits
        for q in self.deadlines:
            if bits & q.mask:
                q.push(rec)

    def discard(self, rec: MatchRecord):
        """Take an alive record out of its state's buffer and bucket, and
        mark it dead; deadline slots and carried walks may still hold it.
        Every death but expiry's goes through here; ``expire`` does the
        same inline."""
        if rec.alive:
            rec.alive = False
            state = self.states[rec.state_id]
            del state.buffer[rec]
            bucket = state.buckets[rec.bucket_key]
            del bucket[rec]
            if not bucket:
                del state.buckets[rec.bucket_key]

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Clear each alive record's bits of the windows it has left, and
        take the records left with none out of their states, as
        ``discard`` does; returns how many.  Pops each deadline slot that
        has left its window, so it visits only the expired records."""
        dead = 0
        states = self.states
        for q in self.deadlines:
            keep = ~q.mask
            now = now_seq if q.by_count else now_ts
            starts, slots, size = q.starts, q.slots, q.size
            while starts and now - starts[0] > size:
                for rec in slots.pop(heappop(starts)):
                    if rec.alive:
                        bits = rec.pattern_bits & keep
                        rec.pattern_bits = bits
                        if not bits:
                            rec.alive = False
                            state = states[rec.state_id]
                            del state.buffer[rec]
                            key = rec.bucket_key
                            bucket = state.buckets[key]
                            del bucket[rec]
                            if not bucket:
                                del state.buckets[key]
                            dead += 1
        return dead

    def dump(self) -> str:
        """Structured text dump of states, edges and PSD bits."""
        n = max(1, self.n)
        lines = [f"plan mode={self.mode} patterns={self.n}"]
        for s in self.states:
            sig = " ".join(f"{t}{'+' if k is StepKind.KLEENE_PLUS else '!' if k is StepKind.NEGATED else ''}"
                           for t, k in s.signature) or "(start)"
            acc = ",".join(str(i) for i in sorted(s.accepting_for)) or "-"
            lines.append(f"state {s.state_id} {render_bitmap(s.psd, n)} "
                         f"sig={sig} accepting={acc}")
        for e in self.edges:
            pids = ",".join(str(i) for i in sorted(e.guards))
            lines.append(f"edge {e.from_id}->{e.to_id} on={e.trigger_type} "
                         f"kind={e.step_kind} patterns={pids}")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------- compilation

def compile_pattern(pattern: Pattern) -> ExecutionPlan:
    """Compile one pattern into a linear state chain."""
    return merge([pattern], mode="view")


@dataclass
class _Chain:
    """Intermediate per-pattern chain before merging."""
    pattern: Pattern
    signatures: list          # state signature per positional depth (incl start)
    transitions: list         # dicts describing edges; from/to are depths
    same_attrs: tuple         # SAME attributes; their checks are added in merge
    residual: tuple           # emission-only conjuncts, positional


def _chain(pattern: Pattern) -> _Chain:
    """The chain of ``pattern``: transition j binds positional step j.

    A conjunct lands on the transition with the largest position among
    the bindings it reads, plus one for a SUM over a Kleene step, whose
    list is closed only by the next step; past the last transition it is
    the residual.  A conjunct over a negated binding is a blocker of the
    gap that binding stands in, kept when every other binding it reads
    lies before the gap's transition, or at it and is not a Kleene step;
    any other is dropped, so the gap blocks on type and SAME alone.
    """
    pos_steps = pattern.positional_steps
    m = len(pos_steps)
    pos_of = {s.binding_name: i for i, s in enumerate(pos_steps)}
    kleene_pos = {i for i, s in enumerate(pos_steps)
                  if s.kind is StepKind.KLEENE_PLUS}

    # signature prefix at each positional depth (start == ()), the negated
    # steps before each positional step, and the transition skipping each
    signatures = [()]
    negs_before = []
    neg_at = {}
    pending = []
    for s in pattern.steps:
        if s.kind is StepKind.NEGATED:
            neg_at[s.binding_name] = len(negs_before)
            pending.append(s)
        else:
            signatures.append(signatures[-1]
                              + tuple((p.event_type, p.kind) for p in pending)
                              + ((s.event_type, s.kind),))
            negs_before.append(pending)
            pending = []

    sched = [[] for _ in range(m + 1)]      # per transition; m: residual
    blockers = {}                           # neg binding -> usable blockers
    same_attrs = []
    for c in ex.conjuncts(pattern.predicate):
        if type(c) is ex.Same:
            same_attrs.append(c.attr)
            continue
        refs = ex.referenced_bindings(c)
        neg_refs = refs & neg_at.keys()
        if len(neg_refs) > 1:
            raise PlanError(f"P{pattern.id + 1}: a conjunct may reference "
                            f"at most one negated binding, not "
                            f"{', '.join(sorted(neg_refs))}")
        if neg_refs:
            (nb,) = neg_refs
            j = neg_at[nb]
            if all(pos_of[r] < j
                   or pos_of[r] == j and pos_of[r] not in kleene_pos
                   for r in refs - neg_refs):
                blockers.setdefault(nb, []).append(_positional(c, pos_of))
            continue
        sums = {x.binding for x in ex.nodes(c) if type(x) is ex.SumAgg}
        sched[max((pos_of[r] + (r in sums and pos_of[r] in kleene_pos)
                   for r in refs), default=0)].append(c)

    transitions = []
    for j, step in enumerate(pos_steps):
        neg_checks = tuple(
            NegCheck(s.event_type, tuple(blockers.get(s.binding_name, ()))
                     + tuple(ex.Same(a) for a in same_attrs))
            for s in negs_before[j])
        action = ("kleene-enter" if step.kind is StepKind.KLEENE_PLUS
                  else "single")
        transitions.append({
            "from": j,
            "to": j + 1,
            "trigger": step.event_type,
            "action": action,
            "conjs": tuple(_positional(c, pos_of) for c in sched[j]),
            "neg_checks": neg_checks,
        })
        if step.kind is StepKind.KLEENE_PLUS:
            # self-extension loop; its only checks, SAME, are added in merge
            transitions.append({
                "from": j + 1,
                "to": j + 1,
                "trigger": step.event_type,
                "action": "kleene-extend",
                "conjs": (),
                "neg_checks": (),
            })

    return _Chain(pattern=pattern, signatures=signatures,
                  transitions=transitions, same_attrs=tuple(same_attrs),
                  residual=tuple(_positional(c, pos_of) for c in sched[m]))


def _positional(e, pos_of: dict):
    """``e`` with each binding name replaced by its slot position, and a
    binding ``pos_of`` lacks (the negated one) by ``None``."""
    t = type(e)
    if t is ex.AttrRef or t is ex.SumAgg:
        return t(pos_of.get(e.binding), e.attr)
    if t is ex.Bin or t is ex.Cmp:
        return t(e.op, _positional(e.left, pos_of),
                 _positional(e.right, pos_of))
    if t is ex.Func:
        return t(e.name, _positional(e.arg, pos_of))
    return e


def merge(patterns, mode: str = "view"):
    """Compile patterns into per-pattern chains and merge them into one
    plan.

    ``view`` unifies states with equal step-prefix signatures;
    ``separate`` keeps every chain disjoint.  States are numbered breadth
    first by depth, and within a depth by the patterns in listed order,
    so numbering is stable.  On an edge that already holds another
    pattern's guard with equal descriptors, a guard reuses that guard's
    ``checks`` tuple.  Descriptors compare by value and by ``repr``, so
    that the literals ``0.0`` and ``-0.0`` differ.
    """
    patterns = list(patterns)
    if not patterns:
        raise PlanError("nothing to merge")
    if [p.id for p in patterns] != list(range(len(patterns))):
        raise PlanError("pattern ids must be 0..n-1 in list order")
    if mode not in ("view", "separate"):
        raise PlanError(f"unknown materialization mode {mode!r}")
    shared = mode == "view"
    chains = [_chain(p) for p in patterns]

    # each pattern's path: the state id at each of its depths
    states = [PlanState(0, ())]
    state_of = {}
    paths = [[0] for _ in chains]
    for depth in range(1, max(len(c.signatures) for c in chains)):
        for c, path in zip(chains, paths):
            if depth < len(c.signatures):
                sig = c.signatures[depth]
                k = sig if shared else (c.pattern.id, sig)
                if k not in state_of:
                    state_of[k] = len(states)
                    states.append(PlanState(len(states), sig))
                path.append(state_of[k])
    _mark_paths(states, chains, paths)

    edges = {}
    for c, path in zip(chains, paths):
        pid = c.pattern.id
        for t in c.transitions:
            frm, to = path[t["from"]], path[t["to"]]
            ek = (frm, to, t["trigger"], t["action"])
            if ek not in edges:
                edges[ek] = PlanEdge(*ek)
            e = edges[ek]
            # one element satisfies SAME; a bucket probe proves it on the key
            checks = t["conjs"] + tuple(
                ex.Same(a) for a in c.same_attrs
                if frm and a not in states[frm].key_attrs)
            checks = next((g.checks for g in e.guards.values()
                           if g.checks == checks
                           and repr(g.checks) == repr(checks)), checks)
            e.guards[pid] = EdgeGuard(checks, t["neg_checks"])

    plan = ExecutionPlan(states, list(edges.values()), patterns, mode)
    plan.same_attrs = {c.pattern.id: c.same_attrs for c in chains}
    for c, path in zip(chains, paths):
        states[path[-1]].accepting_for.add(c.pattern.id)
        if c.residual:
            plan.residuals[(c.pattern.id, path[-1])] = c.residual

    _check_invariants(plan, shared)
    return plan


def _mark_paths(states, chains, paths):
    """Set each state's psd to the bits of the patterns through it, all of
    them on the start state, and key each non-start state on the SAME
    attributes that every pattern through it has.  Every record there
    then agrees with its first element on them, so an element need only
    meet the records of its own key."""
    n = len(chains)
    common = {}
    for c, path in zip(chains, paths):
        bit = pattern_bit(c.pattern.id, n)
        states[0].psd |= bit
        mine = set(c.same_attrs)
        for sid in path[1:]:
            states[sid].psd |= bit
            common[sid] = common[sid] & mine if sid in common else mine
    for sid, attrs in common.items():
        states[sid].key_attrs = tuple(sorted(attrs))


def _check_invariants(plan: ExecutionPlan, shared: bool):
    if shared:
        sigs = [s.signature for s in plan.states]
        if len(sigs) != len(set(sigs)):
            raise PlanError("duplicate sub-pattern signatures in shared plan")
    for s in plan.states:
        if s.psd == 0:
            raise PlanError(f"state {s.state_id} ({s.signature!r}) lies on "
                            "no pattern's chain; psd = 0")
    for e in plan.edges:
        if e.from_id == e.to_id and e.action != "kleene-extend":
            raise PlanError("non-kleene self loop")
        if e.from_id != e.to_id:
            # chain construction guarantees acyclicity; guard against bugs
            if plan.states[e.to_id].depth <= plan.states[e.from_id].depth:
                raise PlanError("backward edge in plan")
