"""Sweep kernels: the edge sweep of ``Engine.step``, generated as Python
source once per engine, and the latency fold of ``engine.measure``.

For each event type that triggers an edge, ``generate`` writes one
function ``sweep_<i>(d, seq, ts)``.  If a gap check reads the type, the
sweep first appends the element to the type's negation history; a
negated type that triggers no edge gets a sweep that does only that.
The sweep then walks the type's edges in plan
order (``ExecutionPlan.edges_by_trigger``).  A start edge evaluates its
guards on the element alone: SAME holds there, but its attributes are
read, so that a missing one raises ``KeyError`` as in ``expr``.  Any other
edge reads the element's key (a missing attribute raises only where a
source record is in a window, as in ``expr``) and probes that bucket,
which holds only alive records; for each one it tests pattern bits,
windows and strict adjacency against constants, one bit mask per
distinct (window, adjacency) of the guards sharing a ``checks`` tuple,
and then evaluates that tuple once, inline.  Conjuncts read the
incoming element's attributes from ``attrs`` and earlier ones from the
record's slots, unpacked to ``s0, s1, ...``; a SAME check compares the
incoming element with the first one, because every element the record
already holds passed the same check when it was bound.  A child is
built only once a guard has passed, in place: ``object.__new__`` and a
store per slot, without ``MatchRecord.__init__``'s frame.  Negation gap
checks are the functions ``gap_<i>``, which read the history lists of the negated
type; they come first in the text, and a sweep takes the ones it calls
as default arguments, ``sweep_<i>(d, seq, ts, gap_<k>=gap_<k>)``.

Each edge collects its children in a list ``c<j>``.  After every edge has
run, the sweep adds them to the target state's ``buffer`` and to the
bucket of the key the edge probed (from the start, the element's),
which it stores in each child's ``bucket_key``;
``ExecutionPlan.insert`` takes a child keyed unlike its parent.  A child
whose state's patterns have one window joins its parent's deadline slot,
which stays queued until expiry clears that window's bits from the
parent; a start edge's child is pushed.  The sweep adds its children
to ``pms_created`` of the engine's counters (``COUNTERS``, which hold no
reference to the engine) and sums each work charge into ``units``.  A
sweep that accepted no match and took no skip-till-next parent returns
the finished ``engine.StepResult``, built in place; otherwise it returns
``(work, new records, accepted, skip-till-next takes, units)`` for
``Engine.step`` to finish.  Each is filled in the order of an
edge-by-edge, record-by-record scan, so the work units and what the
engine emits do not depend on how the guards are grouped.  An accepted
entry is ``(match key, pattern id, record)``, the key being the element
seqs, read by a slot unpack (``seq_tuple()`` in a Kleene or one-step
state).  A child is accepted for each pattern whose bit it holds and
whose residual (``ExecutionPlan.residuals``), if any, it passes: that is
evaluated inline after the bit test, over the child's slots ``s0, ...``.

``generate_fold`` writes ``fold(monitor, elapsed, work)``, unrolled over
the plan's patterns (see its docstring).  ``load`` executes either
module, and the selector's reduction kernel (``selector.generate``),
under a file name ``linecache`` knows, and takes the names the text
defines out of its namespace, so no generated function is in a cycle.

Strings spliced into the source are quoted with ``repr``; numbers and
objects are names bound in the namespace.  Faults count as in ``expr``:
operands are evaluated left to right, then checked, and a fault makes
its conjunct false and is counted once.  The checks are inline and call
no Python function unless a fault occurs: ``/`` is plain division,
whose ``ZeroDivisionError`` is the fault; ``^`` with a non-negative
integral constant exponent is ``**``, which faults only by overflow;
``sqrt``, ``sin``, ``cos``, ``arcsin`` and ``arccos`` call the ``math``
function behind a domain test of their argument, bound once to ``v``,
and outside it the function of ``expr.CHECKED``, which raises the fault.
Only a general ``^`` calls ``expr.CHECKED['^']``.
"""

from __future__ import annotations

import linecache
import math
import weakref
from bisect import bisect_left, bisect_right

from . import expr as ex
from .model import (MatchRecord, SelectionPolicy, StepKind, WindowKind,
                    patterns_in)

_INFIX = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**",
          "<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=="}
# grammar name -> the math function and its domain, a test of the argument
# bound to v; outside it ``checked_<name>``, expr's, raises the fault
_DOMAIN = {"sqrt": ("sqrt", "(v := {}) >= 0"),
           "sin": ("sin", "-INF < (v := {}) < INF"),
           "cos": ("cos", "-INF < (v := {}) < INF"),
           "arcsin": ("asin", "-1 <= (v := {}) <= 1"),
           "arccos": ("acos", "-1 <= (v := {}) <= 1")}
_CHILD = {"single": "rec.slots + (d,)",
          "kleene-enter": "rec.slots + ((d,),)",
          "kleene-extend": "rec.slots[:-1] + (rec.slots[-1] + (d,),)"}


class _Module:
    """Generated sweep and gap functions, and the namespace they read."""

    def __init__(self, diag: ex.EvalDiagnostics, history: dict):
        self.history = history
        self.sweeps = []
        self.gaps = []
        self.gap_names = {}   # (checks, slot layout) -> gap function name
        self.called = {}      # gap names the current sweep calls, in order
        self.names = {}       # (hint, id(value)) -> namespace name
        self.ns = {"MatchRecord": MatchRecord, "NEW": object.__new__,
                   "FAULTS": ex.FAULTS, "fault": diag.fault,
                   "bisect_left": bisect_left, "bisect_right": bisect_right,
                   "power": ex.CHECKED["^"], "INF": math.inf}
        for name, (fn, _) in _DOMAIN.items():
            self.ns[fn] = getattr(math, fn)
            self.ns[f"checked_{name}"] = ex.CHECKED[name]

    def bind(self, value, hint: str) -> str:
        """The namespace name of ``value`` in the role ``hint`` names, new
        on its first binding in that role: a small int that is both a
        state id and a mask gets one name per role."""
        key = (hint, id(value))
        name = self.names.get(key)
        if name is None:
            name = self.names[key] = f"{hint}{len(self.ns)}"
            self.ns[name] = value
        return name


class _Slots:
    """Where the conjuncts of one edge read each slot position: the
    incoming element at ``new`` from ``attrs``, earlier positions from
    ``s0, s1, ...``, the gap element (position ``None``) from ``ne``."""

    def __init__(self, m: _Module, new: int, kleene: set):
        self.m = m
        self.new = new
        self.kleene = kleene

    def attrs(self, p) -> str:
        """Code of the attributes of the element at ``p``, the first one
        if ``p`` is a Kleene slot."""
        if p is None:
            return "ne.attrs"
        if p == self.new:
            return "attrs"
        return f"s{p}[0].attrs" if p in self.kleene else f"s{p}.attrs"

    def num(self, e) -> str:
        t = type(e)
        if t is ex.Num:
            return self.m.bind(e.value, "C")
        if t is ex.AttrRef:
            return f"{self.attrs(e.binding)}[{e.attr!r}]"
        if t is ex.SumAgg:
            return f"sum([el.attrs[{e.attr!r}] for el in s{e.binding}])"
        if t is ex.Func:
            fn, test = _DOMAIN[e.name]
            return (f"({fn}(v) if {test.format(self.num(e.arg))} "
                    f"else checked_{e.name}(v))")
        a, b = self.num(e.left), self.num(e.right)
        if e.op == "^" and not _whole(e.right):
            return f"power({a}, {b})"
        return f"({a} {_INFIX[e.op]} {b})"

    def checks(self, out: list, depth: int, checks, subject: str):
        """Lines setting ``ok`` to the conjunction of ``checks``, stopping
        at the first false one; SAME compares ``subject``'s attribute."""
        for i, c in enumerate(checks):
            d = depth + (i > 0)
            if i:
                out.append("    " * depth + "if ok:")
            if type(c) is ex.Same:  # tuples, like expr's sets, try `is` first
                out.append("    " * d + f"ok = ({subject}[{c.attr!r}],) == "
                           f"({self.attrs(0)}[{c.attr!r}],)")
                continue
            out += ["    " * d + "try:",
                    "    " * d + f"    ok = {self.num(c.left)} "
                    f"{_INFIX[c.op]} {self.num(c.right)}",
                    "    " * d + "except FAULTS as f:",
                    "    " * d + "    ok = fault(f)"]


def generate(eng) -> tuple:
    """The source of ``eng``'s sweep module and the namespace to run it
    in; it binds ``SWEEPS``, trigger type -> sweep function."""
    from .engine import StepResult  # engine imports this module
    plan = eng.plan
    m = _Module(plan.diag, eng.history)
    # the counters hold no reference back to the engine: no cycle
    m.ns.update(StepResult=StepResult, COUNTERS=eng.counters)
    table = []
    out = m.sweeps
    for i, (ttype, edges) in enumerate(plan.edges_by_trigger.items()):
        head = len(out)
        m.called.clear()
        _remember(m, ttype)
        out += ["    attrs = d.attrs", "    work = {}", "    units = 0",
                "    taken = []", "    accept = []"]
        emits = False   # whether the sweep can accept or take a parent
        for j, e in enumerate(edges):
            out.append(f"    # {e!r}")
            if e.from_id == plan.start_id:
                _start_edge(m, eng, e, j)
            else:
                emits |= _edge(m, eng, e, j)
        for j, e in enumerate(edges):
            emits |= _buffer(m, eng, e, j)
        new = " + ".join(f"c{j}" for j in range(len(edges)))
        if emits:
            out += ["    if accept or taken:",
                    f"        return work, {new}, accept, taken, units"]
        # both empty here: no match accepted, no parent taken
        out += _finished(new, "accept", "work", "taken", "units")
        gaps = "".join(f", {g}={g}" for g in m.called)
        out.insert(head, f"def sweep_{i}(d, seq, ts{gaps}):  # {ttype!r}")
        table.append(f"{ttype!r}: sweep_{i}")
    for ttype in m.history:
        if ttype in plan.edges_by_trigger:
            continue
        i = len(table)
        out.append(f"def sweep_{i}(d, seq, ts):  # {ttype!r}, history only")
        _remember(m, ttype)
        out += _finished("[]", "[]", "{}", "[]", "0")
        table.append(f"{ttype!r}: sweep_{i}")
    lines = m.gaps + m.sweeps + ["SWEEPS = {" + ", ".join(table) + "}"]
    return "\n".join(lines) + "\n", m.ns


def _remember(m: _Module, ttype: str):
    """Lines that append the element to the history of its type, if a
    gap check reads that type."""
    hist = m.history.get(ttype)
    if hist is not None:
        m.sweeps += [f"    {m.bind(hist[0], 'H')}.append(seq)",
                     f"    {m.bind(hist[1], 'H')}.append(d)"]


def load(source: str, ns: dict, owner, kind: str) -> dict:
    """Execute generated ``source`` in ``ns`` and return the names it
    defines, taken out of ``ns``: no function is left in the globals it
    runs in, so none is in a reference cycle; a generated function that
    calls another takes it as a default argument.  The text is in
    ``linecache`` while ``owner`` lives, for tracebacks through it."""
    filename = f"<matchshed {kind} {id(owner):#x}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    weakref.finalize(owner, linecache.cache.pop, filename, None)
    given = set(ns)
    exec(compile(source, filename, "exec"), ns)
    return {k: ns.pop(k) for k in ns.keys() - given - {"__builtins__"}}


def generate_fold(plan) -> tuple:
    """The source of ``plan``'s latency fold and the namespace to run it
    in; it defines ``fold(monitor, elapsed, work)`` (see
    ``engine.measure``).  It takes the step's total work first, then
    makes one pass over the work dict, in the dict's order, that adds
    each entry to ``state_work`` and, unless the total is zero, its part
    to the shares.  Each pattern's share is a local ``x<i>``; the states
    whose psd names the same patterns form one group, and a group's part
    goes to each of its patterns' shares.  An element without work still
    adds its entries, zeros included, to ``state_work``."""
    n = plan.n
    groups = {}         # sharer indices -> group number, from 1
    of_state = []       # state id -> its group, 0 for psd 0
    for s in plan.states:
        sharers = patterns_in(s.psd, n)
        of_state.append(groups.setdefault(sharers, len(groups) + 1)
                        if sharers else 0)
    add = "state_work[sid] = state_work.get(sid, 0) + w"
    out = ["def fold(monitor, elapsed, work):",
           "    state_work = monitor.state_work",
           "    lat = monitor.latency_ms",
           "    lat_sum = monitor.lat_sum",
           "    total = sum(work.values())",
           "    if total == 0:",
           "        for sid, w in work.items():",
           "            " + add]
    out += [f"        lat_sum[{i}] += lat[{i}]" for i in range(n)]
    out += ["        return",
            "    " + " = ".join(f"x{i}" for i in range(n)) + " = 0.0",
            "    for sid, w in work.items():",
            "        " + add,
            "        g = GROUP[sid]"]
    for sharers, g in groups.items():
        out.append(f"        {'elif' if g > 1 else 'if'} g == {g}:  # "
                   f"pattern{'s' * (len(sharers) > 1)} "
                   f"{', '.join(map(str, sharers))}")
        if len(sharers) == 1:   # x / 1 is x
            out.append(f"            x{sharers[0]} += elapsed * (w / total)")
            continue
        out.append(f"            part = elapsed * (w / total) / "
                   f"{len(sharers)}")
        out += [f"            x{i} += part" for i in sharers]
    out += ["    a = monitor.alpha", "    keep = 1 - a"]
    for i in range(n):
        out += [f"    lat[{i}] = x = keep * lat[{i}] + a * x{i}",
                f"    lat_sum[{i}] += x"]
    return "\n".join(out) + "\n", {"GROUP": tuple(of_state)}


def _groups(edge) -> list:
    """The edge's guards as ``(checks, [(pattern id, guard)])``, one entry
    per shared ``checks`` tuple, in the order the tuples first occur."""
    groups = {}
    for pid, g in edge.guards.items():
        groups.setdefault(id(g.checks), (g.checks, []))[1].append((pid, g))
    return list(groups.values())


def _kleene(state) -> set:
    """The slot positions of ``state``'s Kleene steps."""
    kinds = [k for _, k in state.signature if k is not StepKind.NEGATED]
    return {p for p, k in enumerate(kinds) if k is StepKind.KLEENE_PLUS}


def _key(attrs_of) -> str:
    """Code of the bucket key of ``d`` over the attributes ``attrs_of``."""
    return "(" + "".join(f"attrs[{a!r}], " for a in attrs_of) + ")"


def _start_edge(m: _Module, eng, e, j: int):
    out = m.sweeps
    frm, to = m.bind(e.from_id, "I"), m.bind(e.to_id, "I")
    at = _Slots(m, 0, set())
    out += [f"    c{j} = []", *_charge(1, frm, "1"), "    passed = 0"]
    for checks, guards in _groups(e):
        mask = m.bind(sum(eng.bit[pid] for pid, _ in guards), "M")
        pad = "        " if checks else "    "
        if checks:
            at.checks(out, 1, checks, "attrs")
            out.append("    if ok:")
        same = {a for pid, _ in guards for a in eng.plan.same_attrs[pid]}
        out += [pad + f"attrs[{a!r}]  # SAME" for a in sorted(same)]
        out.append(pad + f"passed |= {mask}")
    slots = "((d,),)" if e.action == "kleene-enter" else "(d,)"
    out.append("    if passed:")
    out += _child(2, slots, to, "seq", "ts", "None", j)
    out += _charge(2, to, "1")


def _edge(m: _Module, eng, e, j: int) -> bool:
    """Lines that sweep the bucket the element probes in the source
    state of edge ``e``; whether they can take a skip-till-next parent."""
    out = m.sweeps
    plan = eng.plan
    src = plan.states[e.from_id]
    at = _Slots(m, -1 if e.action == "kleene-extend" else src.depth,
               _kleene(src))
    unpack = "".join(f"s{p}, " for p in range(src.depth)) + "= rec.slots"
    buffer, buckets = m.bind(src.buffer, "L"), m.bind(src.buckets, "B")
    frm, to = m.bind(e.from_id, "I"), m.bind(e.to_id, "I")
    head = len(out)     # where the key lines go, once the tests are known
    out += [f"    c{j} = []",
            f"    for rec in {buckets}.get(k{j}, ()):",
            "        bits = rec.pattern_bits", "        passed = 0"]
    windows = []
    next_mask = 0
    for checks, guards in _groups(e):
        classes = {}    # (count window?, size, strict?) -> bits
        plain = 0       # bits of the guards without negation checks
        for pid, g in guards:
            w, sel, bit = eng.windows[pid], eng.selection[pid], eng.bit[pid]
            k = (w.kind is WindowKind.COUNT, w.size,
                 sel is SelectionPolicy.STRICT_CONTIGUITY)
            classes[k] = classes.get(k, 0) | bit
            plain |= 0 if g.neg_checks else bit
            if sel is SelectionPolicy.SKIP_TILL_NEXT:
                next_mask |= bit
        tests = []
        for (by_count, size, strict), bits in classes.items():
            size = m.bind(size, "W")
            test = (f"seq - rec.first_seq <= {size}" if by_count
                    else f"ts - rec.first_ts <= {size}")
            if strict:
                test += " and seq == rec.last_seq + 1"
            tests.append((m.bind(bits, "M"), test))
        windows += tests
        if len(tests) == 1:
            ((mask, test),) = tests
            out += [f"        m = bits & {mask}", f"        if m and {test}:"]
        else:
            out.append("        m = 0")
            for mask, test in tests:
                out += [f"        b = bits & {mask}",
                        f"        if b and {test}:", "            m |= b"]
            out.append("        if m:")
        depth = 3
        if checks:
            out.append("            " + unpack)
            at.checks(out, depth, checks, "attrs")
            out.append("            if ok:")
            depth = 4
        pad = "    " * depth
        if plain == sum(bits for bits in classes.values()):
            out.append(pad + "passed |= m")
        elif plain:
            out.append(pad + f"passed |= m & {m.bind(plain, 'M')}")
        for pid, g in guards:
            if g.neg_checks:
                bit = m.bind(eng.bit[pid], "M")
                gap = _gap(m, at, g.neg_checks, unpack)
                m.called[gap] = None
                out += [pad + f"if m & {bit} and {gap}(rec, attrs, seq):",
                        pad + f"    passed |= {bit}"]
    out.append("        if passed:")
    out += _child(3, _CHILD[e.action], to, "rec.first_seq", "rec.first_ts",
                  "rec", j)
    if next_mask:
        nxt = m.bind(next_mask, "M")
        out += [f"            if passed & {nxt}:",
                f"                taken.append((rec, passed & {nxt}))"]
    # a missing key attribute raises only at a record in a window
    inside = " or ".join(f"rec.pattern_bits & {mask} and {test}"
                         for mask, test in windows)
    out[head:head] = [
        "    try:", f"        k{j} = {_key(src.key_attrs)}",
        "    except KeyError:", f"        for rec in {buffer}:",
        f"            if {inside}:", "                raise",
        f"        k{j} = None"]
    out += [f"    if c{j}:", *_charge(2, to, f"len(c{j})"),
            f"    if {buffer}:", *_charge(2, frm, f"len({buffer})")]
    return bool(next_mask)


def _buffer(m: _Module, eng, e, j: int) -> bool:
    """Lines that count and buffer the children ``c<j>`` of edge ``e``,
    then accept the complete ones (see the module docstring); whether
    they can accept one."""
    out = m.sweeps
    plan = eng.plan
    to = plan.states[e.to_id]
    start = e.from_id == plan.start_id
    queues = [q for q in plan.deadlines if q.mask & to.psd]
    out += [f"    if c{j}:", f"        COUNTERS.pms_created += len(c{j})"]
    if start or to.key_attrs == plan.states[e.from_id].key_attrs:
        buffer, buckets = m.bind(to.buffer, "L"), m.bind(to.buckets, "B")
        key = f"k{j}"
        if start:
            out.append(f"        {key} = {_key(to.key_attrs)}")
        out += [f"        bucket = {buckets}.setdefault({key}, {{}})",
                f"        for c in c{j}:", f"            c.bucket_key = {key}",
                f"            {buffer}[c] = bucket[c] = None"]
        if start or len(queues) > 1:
            out += [f"            if c.pattern_bits & {m.bind(q.mask, 'M')}: "
                    f"{m.bind(q, 'Q')}.push(c)" for q in queues]
        else:
            (q,) = queues
            out.append(f"            {m.bind(q.slots, 'D')}[c.first_"
                       f"{'seq' if q.by_count else 'ts'}].append(c)")
    else:
        out += [f"        for c in c{j}:",
                f"            {m.bind(plan.insert, 'insert')}(c)"]
    if not to.accepting_for:
        return False
    out.append(f"        for c in c{j}:")
    held = range(to.depth - 1)      # the last slot holds d
    key = "c.seq_tuple()"
    kleene = _kleene(to)
    if held and not kleene:
        key = "(" + "".join(f"s{p}.seq_index, " for p in held) + "seq)"
        out.append(f"            {''.join(f's{p}, ' for p in held)}_ = c.slots")
    out.append(f"            key = {key}")
    for pid in sorted(to.accepting_for):
        test = ("" if to.psd == eng.bit[pid] else
                f"if c.pattern_bits & {m.bind(eng.bit[pid], 'M')}: ")
        accept = f"accept.append((key, {m.bind(pid, 'I')}, c))"
        residual = plan.residuals.get((pid, to.state_id))
        depth = 3
        if residual:    # after the bit test: only the pattern's records
            if test:
                out.append("    " * depth + test.rstrip())
                depth = 4
            out.append("    " * depth + "".join(
                f"s{p}, " for p in range(to.depth)) + "= c.slots")
            _Slots(m, -1, kleene).checks(out, depth, residual, "attrs")
            test = "if ok: "
        out.append("    " * depth + test + accept)
    return True


def _charge(depth: int, sid: str, units: str) -> list:
    """Lines that charge ``units`` of work to state ``sid``, in ``work``
    and in the step's total."""
    pad = "    " * depth
    return [pad + f"work[{sid}] = work.get({sid}, 0) + {units}",
            pad + f"units += {units}"]


def _finished(new: str, complete: str, work: str, keys: str,
              units: str) -> list:
    """Lines that return the step's finished ``StepResult``, built in
    place: ``object.__new__`` and one store per field, without the
    dataclass ``__init__``'s frame."""
    return ["    r = NEW(StepResult)", f"    r.new_pms = {new}",
            f"    r.complete = {complete}", f"    r.work = {work}",
            f"    r.match_keys = {keys}", f"    r.units = {units}",
            "    return r"]


def _child(depth: int, slots: str, to: str, first_seq: str, first_ts: str,
           parent: str, j: int) -> list:
    """Lines that append to ``c<j>`` a child record built in place: its
    slots filled as ``MatchRecord.__init__`` fills them, without that
    call's frame.  Buffering sets ``bucket_key``."""
    pad = "    " * depth
    return [pad + "c = NEW(MatchRecord)", pad + "c.pattern_bits = passed",
            pad + f"c.slots = {slots}", pad + f"c.state_id = {to}",
            pad + f"c.first_seq = {first_seq}",
            pad + f"c.first_ts = {first_ts}", pad + "c.last_seq = seq",
            pad + f"c.parent = {parent}", pad + "c.alive = True",
            pad + "c.entry = None", pad + f"c{j}.append(c)"]


def _whole(e) -> bool:
    """Whether ``e`` is a non-negative integral constant: ``x ** e`` then
    faults only by overflow, as ``expr.CHECKED['^']`` does."""
    return type(e) is ex.Num and e.value >= 0 and e.value % 1 == 0


def _gap(m: _Module, at: _Slots, neg_checks, unpack: str) -> str:
    """A generated ``gap_<i>(rec, attrs, seq)``: true if no element of a
    negated type between ``rec``'s last element and ``seq`` blocks; one
    function per distinct checks and slot layout.  Checks compare by
    ``repr``, as in ``plan.merge``."""
    key = (repr(neg_checks), at.new, frozenset(at.kleene), unpack)
    name = m.gap_names.get(key)
    if name is not None:
        return name
    name = m.gap_names[key] = f"gap_{len(m.gap_names)}"
    out = m.gaps
    out += [f"def {name}(rec, attrs, seq):", "    " + unpack,
            "    lo = rec.last_seq"]
    for nc in neg_checks:
        hist = m.bind(m.history[nc.neg_type], "H")
        out.append(f"    seqs, elems = {hist}  # {nc.neg_type!r}")
        if not nc.blockers:
            out += ["    if bisect_right(seqs, lo) < bisect_left(seqs, seq):",
                    "        return False"]
            continue
        out.append("    for ne in elems[bisect_right(seqs, lo):"
                   "bisect_left(seqs, seq)]:")
        at.checks(out, 2, nc.blockers, "ne.attrs")
        out += ["        if ok:", "            return False"]
    out.append("    return True")
    return name
