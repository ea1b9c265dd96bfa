"""Execution plans: per-pattern state chains merged into a shared DAG.

States are keyed by their step-prefix signature (event types + step kinds,
predicates excluded), so patterns share states for common prefixes.  Negated
steps appear in the signature but create no state: they compile to
absence guards on the edge that skips over them.

Guards are compiled to closures over the record's positional slot tuple,
so the hot loop avoids building binding environments.  Each non-start
state is keyed on the SAME attributes common to the patterns through it;
an edge leaving a keyed state leaves out the SAME checks on those
attributes, because the engine only meets records of the element's key.

Patterns whose guards on one edge schedule the same conjuncts over the
same slot positions, with the same SAME checks, share one compiled
``checks`` tuple, so the engine evaluates it once per record for all of
them.  A compiled check that faults (division by zero, a domain error,
an overflow) is false and is counted in the plan's ``EvalDiagnostics``.
The conjuncts no guard can decide, a SUM over a final Kleene step, are
kept per accepting state as the residual that is checked at emission.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from heapq import heappop, heappush

from . import expr as ex
from .model import MatchRecord, Pattern, StepKind, WindowKind, pattern_bit


class PlanError(ValueError):
    pass


@dataclass
class NegCheck:
    """Absence guard for one negated step, evaluated over the gap."""
    neg_type: str
    # (slots, neg_elem) -> bool; all true means neg_elem blocks the transition
    blockers: tuple


@dataclass
class EdgeGuard:
    """Per-pattern guard on a transition: prunable conjunct closures plus
    absence checks for skipped negated steps.  Patterns with equal
    conjuncts on an edge hold the same ``checks`` object."""
    pattern_id: int
    checks: tuple      # (slots,) -> bool
    neg_checks: tuple  # NegCheck


class PlanState:
    """One shared sub-pattern state and its partial-match store.

    Records live in ``buffer`` in insertion order and, the same records in
    the same order, in ``buckets`` keyed by the values of ``key_attrs`` on
    the record's first element.  ``key_attrs`` are the SAME attributes
    every pattern through the state has; with none the state has the one
    bucket ``()``.  Tombstoned records stay in both until tombstones
    outnumber the alive records by more than ``SLACK``, when an expiry
    call compacts the state; ``live`` counts the alive ones.
    """

    SLACK = 16  # tombstones a state may hold beyond its alive count

    __slots__ = ("state_id", "signature", "buffer", "buckets", "key_attrs",
                 "live", "accepting_for", "psd", "is_kleene", "depth")

    def __init__(self, state_id: int, signature: tuple):
        self.state_id = state_id
        self.signature = signature
        self.buffer = []
        self.buckets = {}   # key tuple -> records with that key
        self.key_attrs = ()
        self.live = 0
        self.accepting_for = set()
        self.psd = 0
        # number of bound positional slots for records in this state
        self.depth = sum(1 for (_, k) in signature if k is not StepKind.NEGATED)
        self.is_kleene = bool(signature) and signature[-1][1] is StepKind.KLEENE_PLUS

    def key_of(self, el) -> tuple:
        """Bucket key of the records whose first element is ``el``; for an
        incoming element, the key of the records it can extend."""
        attrs = el.attrs
        return tuple([attrs.get(a) for a in self.key_attrs])

    def compact(self):
        """Drop tombstoned records from the buffer and buckets, keeping
        order."""
        self.buffer[:] = [r for r in self.buffer if r.alive]
        buckets = self.buckets
        for k in list(buckets):
            kept = [r for r in buckets[k] if r.alive]
            if kept:
                buckets[k] = kept
            else:
                del buckets[k]

    def __repr__(self):
        sig = "".join(t for t, _ in self.signature) or "start"
        return f"PlanState({self.state_id}, {sig})"


class DeadlineQueue:
    """The records of one window, ordered by when they leave it.

    A record leaves a window of ``size`` once ``now - start > size``,
    where its start is ``first_seq`` for a count window and ``first_ts``
    for a time window.  Records are grouped by start in ``slots``, and
    ``starts`` is a min-heap of the distinct starts, like the slots of a
    timing wheel: popping the expired records costs O(expired), and a
    child, which shares its parent's start, only appends to a slot.
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

    def pop_expired(self, now) -> list:
        """Remove and return the records with ``now - start > size``."""
        starts, slots, size = self.starts, self.slots, self.size
        out = []
        while starts and now - starts[0] > size:
            out.extend(slots.pop(heappop(starts)))
        return out


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
    def __init__(self, states, edges, patterns, mode: str,
                 diag: ex.EvalDiagnostics):
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
        # pattern id -> ordered state ids along its chain (start excluded)
        self.pattern_paths = {}
        # (pattern_id, accepting state) -> (binding names by position,
        # residual predicate), for patterns with emission-only conjuncts
        self.residuals = {}
        # faults of the compiled checks and of the engine's residual checks
        self.diag = diag
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
            for r in s.buffer:
                if r.alive:
                    yield r

    def insert(self, rec: MatchRecord, key=None):
        """Buffer a new record in its state, in its key's bucket and in
        the deadline queue of each window its patterns have.  ``key`` is
        the bucket key when the caller knows it (a child keyed like its
        parent's state); by default it is read from the first element."""
        state = self.states[rec.state_id]
        state.buffer.append(rec)
        if key is None:
            first = rec.slots[0]
            key = state.key_of(first[0] if type(first) is tuple else first)
        bucket = state.buckets.get(key)
        if bucket is None:
            state.buckets[key] = [rec]
        else:
            bucket.append(rec)
        state.live += 1
        bits = rec.pattern_bits
        for q in self.deadlines:
            if bits & q.mask:
                q.push(rec)

    def discard(self, rec: MatchRecord):
        """Tombstone a record.  Every tombstone goes through here, so that
        each state's live count stays exact."""
        if rec.alive:
            rec.alive = False
            self.states[rec.state_id].live -= 1

    def expire(self, now_seq: int, now_ts: float) -> int:
        """Clear each alive record's bits of the windows it has left, and
        tombstone the records left with none; returns how many.  Visits
        only the expired records, then compacts each state whose
        tombstones outnumber its alive records by more than the slack."""
        evicted = 0
        for q in self.deadlines:
            keep = ~q.mask
            for rec in q.pop_expired(now_seq if q.by_count else now_ts):
                if rec.alive:
                    rec.pattern_bits &= keep
                    if rec.pattern_bits == 0:
                        self.discard(rec)
                        evicted += 1
        for state in self.states:
            if len(state.buffer) - state.live > state.live + state.SLACK:
                state.compact()
        return evicted

    def dump(self) -> str:
        """Structured text dump of states, edges and PSD bits."""
        n = max(1, self.n)
        lines = [f"plan mode={self.mode} patterns={self.n}"]
        for s in self.states:
            sig = " ".join(f"{t}{'+' if k is StepKind.KLEENE_PLUS else '!' if k is StepKind.NEGATED else ''}"
                           for t, k in s.signature) or "(start)"
            acc = ",".join(str(i) for i in sorted(s.accepting_for)) or "-"
            lines.append(f"state {s.state_id} [{format(s.psd, f'0{n}b')}] "
                         f"sig={sig} accepting={acc}")
        for e in self.edges:
            pids = ",".join(str(i) for i in sorted(e.guards))
            lines.append(f"edge {e.from_id}->{e.to_id} on={e.trigger_type} "
                         f"kind={e.step_kind} patterns={pids}")
        return "\n".join(lines) + "\n"


# ------------------------------------------------------------ guard compiler

def _compile_numeric(e, pos_of: dict, neg_binding=None):
    """Compile a numeric expression to (slots, neg_elem) -> float.

    Raises ex._MathFault at call time on div-by-zero / domain errors
    (including a NaN trig or root argument, a non-finite sin/cos argument
    and a complex power), and OverflowError when a power leaves the float
    range.
    """
    t = type(e)
    if t is ex.Num:
        v = e.value
        return lambda s, ne: v
    if t is ex.AttrRef:
        a = e.attr
        if e.binding == neg_binding:
            return lambda s, ne: ne.attrs[a]
        p = pos_of[e.binding]
        return lambda s, ne: s[p].attrs[a]
    if t is ex.SumAgg:
        a = e.attr
        p = pos_of[e.binding]
        return lambda s, ne: sum(el.attrs[a] for el in s[p])
    if t is ex.Bin:
        f = _compile_numeric(e.left, pos_of, neg_binding)
        g = _compile_numeric(e.right, pos_of, neg_binding)
        op = e.op
        if op == "+":
            return lambda s, ne: f(s, ne) + g(s, ne)
        if op == "-":
            return lambda s, ne: f(s, ne) - g(s, ne)
        if op == "*":
            return lambda s, ne: f(s, ne) * g(s, ne)
        if op == "/":
            def div(s, ne):
                d = g(s, ne)
                if d == 0:
                    raise ex._MathFault("div_by_zero")
                return f(s, ne) / d
            return div
        if op == "^":
            def power(s, ne):
                a = f(s, ne)
                b = g(s, ne)
                try:
                    r = a ** b
                except ZeroDivisionError:  # 0 to a negative power
                    raise ex._MathFault("div_by_zero") from None
                if type(r) is complex:  # negative base, fractional power
                    raise ex._MathFault("domain_error")
                return r
            return power
    if t is ex.Func:
        f = _compile_numeric(e.arg, pos_of, neg_binding)
        name = e.name
        fn = ex._FUNCS[name]
        if name in ("arcsin", "arccos"):
            def trig(s, ne):
                x = f(s, ne)
                if not abs(x) <= 1:  # NaN fails too
                    raise ex._MathFault("domain_error")
                return fn(x)
            return trig
        if name == "sqrt":
            def root(s, ne):
                x = f(s, ne)
                if not x >= 0:  # NaN fails too
                    raise ex._MathFault("domain_error")
                return fn(x)
            return root
        isfinite = math.isfinite

        def periodic(s, ne):
            x = f(s, ne)
            if not isfinite(x):
                raise ex._MathFault("domain_error")
            return fn(x)
        return periodic
    raise PlanError(f"cannot compile {e!r}")


_CMP_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "=": operator.eq}


def _compile_cmp(e: ex.Cmp, pos_of, diag: ex.EvalDiagnostics,
                 neg_binding=None):
    """Compile a comparison to (slots, neg_elem=None) -> bool.  A math
    fault makes it false and is counted in ``diag``, once per call."""
    f = _compile_numeric(e.left, pos_of, neg_binding)
    g = _compile_numeric(e.right, pos_of, neg_binding)
    op = _CMP_OPS[e.op]

    def check(s, ne=None):
        try:
            return op(f(s, ne), g(s, ne))
        except ex._MathFault as fault:
            kind = fault.kind
        except OverflowError:
            kind = "overflow"
        setattr(diag, kind, getattr(diag, kind) + 1)
        return False

    return check


def _compile_same(attr: str, neg_binding=False):
    """Equality of one attribute across all bound elements (and the gap
    candidate, when used as a blocker)."""
    if neg_binding:
        def blocker(slots, ne):
            first = slots[0]
            anchor = (first[0] if isinstance(first, tuple) else first).attrs[attr]
            return ne.attrs[attr] == anchor
        return blocker

    def check(slots, ne=None):
        first = slots[0]
        anchor = (first[0] if isinstance(first, tuple) else first).attrs[attr]
        for v in slots:
            if isinstance(v, tuple):
                for el in v:
                    if el.attrs[attr] != anchor:
                        return False
            elif v.attrs[attr] != anchor:
                return False
        return True

    return check


# --------------------------------------------------------------- compilation

def compile_pattern(pattern: Pattern) -> ExecutionPlan:
    """Compile one pattern into a linear state chain."""
    return merge([pattern], mode="view")


@dataclass
class _Chain:
    """Intermediate per-pattern chain before merging."""
    pattern: Pattern
    signatures: list          # state signature per positional depth (incl start)
    transitions: list         # list of dicts describing edges
    same_attrs: tuple         # SAME attributes; their checks are added in merge
    pos_of: dict              # positional binding name -> slot index
    residual: object          # emission-only conjuncts (ex.And) or None


def _chain(pattern: Pattern, diag: ex.EvalDiagnostics) -> _Chain:
    steps = pattern.steps
    pos_steps = pattern.positional_steps
    m = len(pos_steps)

    # signature prefix at each positional depth (start == ())
    signatures = [()]
    pending = []
    for s in steps:
        if s.kind is StepKind.NEGATED:
            pending.append(s)
        else:
            signatures.append(signatures[-1]
                              + tuple((p.event_type, p.kind) for p in pending)
                              + ((s.event_type, s.kind),))
            pending.clear()

    pos_of = {s.binding_name: i for i, s in enumerate(pos_steps)}
    kleene_pos = {i for i, s in enumerate(pos_steps)
                  if s.kind is StepKind.KLEENE_PLUS}

    # negated steps preceding each positional step
    negs_before = [[] for _ in range(m)]
    pend = []
    pi = 0
    for s in steps:
        if s.kind is StepKind.NEGATED:
            pend.append(s)
        else:
            negs_before[pi] = list(pend)
            pend.clear()
            pi += 1

    conjs = ex.conjuncts(pattern.predicate)
    neg_names = {s.binding_name for s in steps if s.kind is StepKind.NEGATED}

    # schedule each conjunct on the earliest transition where it is decidable
    sched = [[] for _ in range(m)]          # regular checks per transition
    neg_sched = [{} for _ in range(m)]      # neg binding -> blocker conjuncts
    same_attrs = []
    emission = []                           # decidable only at emission
    for c in conjs:
        if type(c) is ex.Same:
            same_attrs.append(c.attr)
            continue
        refs = ex.referenced_bindings(c)
        neg_refs = refs & neg_names
        if len(neg_refs) > 1:
            raise PlanError("a conjunct may reference at most one negated "
                            "binding")
        if neg_refs:
            (nb,) = neg_refs
            # the transition that skips over nb
            j = next(i for i in range(m)
                     if any(s.binding_name == nb for s in negs_before[i]))
            decidable = all(pos_of[r] <= j for r in refs - {nb})
            undec_kleene = any(pos_of[r] in kleene_pos and pos_of[r] >= j
                               for r in refs - {nb})
            neg_sched[j].setdefault(nb, []).append(
                (c, decidable and not undec_kleene))
            continue
        # earliest transition index where every ref is bound & closed
        when = 0
        emission_only = False
        for r in refs:
            p = pos_of[r]
            if p in kleene_pos and _refs_sum(c, r):
                if p + 1 >= m:
                    emission_only = True
                else:
                    when = max(when, p + 1)
            else:
                when = max(when, p)
        if emission_only:
            emission.append(c)
        else:
            sched[when].append(c)

    transitions = []
    for j in range(m):
        step = pos_steps[j]
        neg_checks = []
        for s in negs_before[j]:
            nb = s.binding_name
            # undecidable conjuncts block conservatively: no closure
            blockers = [_compile_cmp(c, pos_of, diag, neg_binding=nb)
                        for c, decidable in neg_sched[j].get(nb, [])
                        if decidable]
            for a in same_attrs:
                blockers.append(_compile_same(a, neg_binding=True))
            neg_checks.append(NegCheck(s.event_type, tuple(blockers)))
        action = ("kleene-enter" if step.kind is StepKind.KLEENE_PLUS
                  else "single")
        transitions.append({
            "from_sig": signatures[j],
            "to_sig": signatures[j + 1],
            "trigger": step.event_type,
            "action": action,
            "conjs": tuple(sched[j]),   # compiled in merge
            "neg_checks": tuple(neg_checks),
        })
        if step.kind is StepKind.KLEENE_PLUS:
            # self-extension loop; its only checks, SAME, are added in merge
            transitions.append({
                "from_sig": signatures[j + 1],
                "to_sig": signatures[j + 1],
                "trigger": step.event_type,
                "action": "kleene-extend",
                "conjs": (),
                "neg_checks": (),
            })

    return _Chain(pattern=pattern, signatures=signatures,
                  transitions=transitions, same_attrs=tuple(same_attrs),
                  pos_of=pos_of,
                  residual=ex.And(tuple(emission)) if emission else None)


def _refs_sum(c, binding) -> bool:
    found = False

    def walk(e):
        nonlocal found
        t = type(e)
        if t is ex.SumAgg and e.binding == binding:
            found = True
        elif t in (ex.Bin, ex.Cmp):
            walk(e.left)
            walk(e.right)
        elif t is ex.Func:
            walk(e.arg)

    walk(c)
    return found


def _shape(e, pos_of: dict):
    """An expression with its binding names replaced by slot positions:
    two conjuncts with equal shapes compute the same thing on a slot
    tuple.  Literals compare by ``repr``, so ``0.0`` and ``-0.0`` differ."""
    t = type(e)
    if t is ex.AttrRef or t is ex.SumAgg:
        return (t.__name__, pos_of[e.binding], e.attr)
    if t is ex.Num:
        return ("Num", repr(e.value))
    if t is ex.Bin or t is ex.Cmp:
        return (e.op, _shape(e.left, pos_of), _shape(e.right, pos_of))
    if t is ex.Func:
        return (e.name, _shape(e.arg, pos_of))
    raise PlanError(f"cannot compile {e!r}")


def _guard_signature(conjs, pos_of, same) -> tuple:
    """What a guard's ``checks`` tuple computes: its conjuncts' shapes,
    in order, then the SAME attributes it checks."""
    return tuple(_shape(c, pos_of) for c in conjs), same


def _edge_checks(entries: list, conjs, pos_of, same, diag) -> tuple:
    """The ``checks`` tuple of a guard on an edge: that of a guard already
    on the edge with the same signature, else a newly compiled one.

    ``entries`` holds ``[signature, conjs, pos_of, same, checks]`` per
    distinct tuple on the edge.  Signatures are computed only once the
    edge has a second guard, so an unshared edge costs no comparison."""
    mine = [None, conjs, pos_of, same, None]
    for other in entries:
        if other[0] is None:
            other[0] = _guard_signature(*other[1:4])
        if mine[0] is None:
            mine[0] = _guard_signature(conjs, pos_of, same)
        if other[0] == mine[0]:
            return other[4]
    mine[4] = (tuple(_compile_cmp(x, pos_of, diag) for x in conjs)
               + tuple(_compile_same(a) for a in same))
    entries.append(mine)
    return mine[4]


def merge(patterns, mode: str = "view"):
    """Compile patterns into per-pattern chains and merge them into one
    plan.

    ``view`` unifies states with equal step-prefix signatures;
    ``separate`` keeps every chain disjoint.  On an edge that already
    holds another pattern's guard, a guard with the same signature
    (``_guard_signature``) reuses that guard's ``checks`` tuple.
    """
    patterns = list(patterns)
    if not patterns:
        raise PlanError("nothing to merge")
    if [p.id for p in patterns] != list(range(len(patterns))):
        raise PlanError("pattern ids must be 0..n-1 in list order")
    if mode not in ("view", "separate"):
        raise PlanError(f"unknown materialization mode {mode!r}")
    shared = mode == "view"
    diag = ex.EvalDiagnostics()
    chains = [_chain(p, diag) for p in patterns]

    # deterministic state discovery: BFS over chain signatures, patterns in
    # listed order, so numbering is stable
    def key(pid, sig):
        return sig if shared else (pid, sig)

    state_of = {}
    states = []

    start = PlanState(0, ())
    states.append(start)
    for c in chains:
        state_of[key(c.pattern.id, ())] = start

    # breadth-first by depth across all chains
    max_depth = max(len(c.signatures) - 1 for c in chains)
    for depth in range(1, max_depth + 1):
        for c in chains:
            if depth < len(c.signatures):
                sig = c.signatures[depth]
                k = key(c.pattern.id, sig)
                if k not in state_of:
                    st = PlanState(len(states), sig)
                    states.append(st)
                    state_of[k] = st

    paths = {c.pattern.id: [state_of[key(c.pattern.id, sig)].state_id
                            for sig in c.signatures[1:]] for c in chains}
    _assign_keys(states, chains, paths)

    edges = {}
    edge_list = []
    placed = {}   # edge key -> guard entries, see _edge_checks
    for c in chains:
        pid = c.pattern.id
        for t in c.transitions:
            frm = state_of[key(pid, t["from_sig"])]
            to = state_of[key(pid, t["to_sig"])]
            ek = (frm.state_id, to.state_id, t["trigger"], t["action"])
            if ek not in edges:
                e = PlanEdge(frm.state_id, to.state_id, t["trigger"],
                             t["action"])
                edges[ek] = e
                edge_list.append(e)
            # the probe of the source state's bucket proves SAME on its key
            same = tuple(a for a in c.same_attrs if a not in frm.key_attrs)
            checks = _edge_checks(placed.setdefault(ek, []), t["conjs"],
                                  c.pos_of, same, diag)
            edges[ek].guards[pid] = EdgeGuard(pid, checks, t["neg_checks"])

    plan = ExecutionPlan(states, edge_list, patterns, mode, diag)
    plan.pattern_paths = paths
    for c in chains:
        pid = c.pattern.id
        acc_state = state_of[key(pid, c.signatures[-1])]
        acc_state.accepting_for.add(pid)
        if c.residual is not None:
            plan.residuals[(pid, acc_state.state_id)] = (
                tuple(s.binding_name for s in c.pattern.positional_steps),
                c.residual)

    _check_invariants(plan, shared)
    return plan


def _assign_keys(states, chains, paths):
    """Key each non-start state on the SAME attributes that every pattern
    through it has.  Every record there then agrees with its first element
    on them, so an element need only meet the records of its own key."""
    common = {}
    for c in chains:
        for sid in paths[c.pattern.id]:
            mine = set(c.same_attrs)
            common[sid] = common[sid] & mine if sid in common else mine
    for sid, attrs in common.items():
        states[sid].key_attrs = tuple(sorted(attrs))


def _check_invariants(plan: ExecutionPlan, shared: bool):
    if shared:
        sigs = [s.signature for s in plan.states]
        if len(sigs) != len(set(sigs)):
            raise PlanError("duplicate sub-pattern signatures in shared plan")
    for e in plan.edges:
        if e.from_id == e.to_id and e.action != "kleene-extend":
            raise PlanError("non-kleene self loop")
        if e.from_id != e.to_id:
            # chain construction guarantees acyclicity; guard against bugs
            if plan.states[e.to_id].depth <= plan.states[e.from_id].depth:
                raise PlanError("backward edge in plan")
