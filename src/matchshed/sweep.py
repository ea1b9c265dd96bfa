"""Sweep kernels: the edge sweep of ``Engine.step``, generated as Python
source once per engine.

For each event type that triggers an edge, ``generate`` writes one
function ``sweep_<i>(d, seq, ts)``.  It walks the type's edges in plan
order (``ExecutionPlan.edges_by_trigger``).  A start edge evaluates its
guards on the element alone.  Any other edge probes the source state's
bucket for the element's key; for each alive record there it tests
pattern bits, windows and strict adjacency against constants, one bit
mask per distinct (window, adjacency) of the guards sharing a ``checks``
tuple, and then evaluates that tuple once, inline.  Conjuncts read the
incoming element's attributes from ``attrs`` and earlier ones from the
record's slots, unpacked to ``s0, s1, ...``; a SAME check compares the
incoming element with the first one, because every element the record
already holds passed the same check when it was bound.  A child's slot
tuple is built only once a guard has passed.  Negation gap checks are
the functions ``gap_<i>``, which read the history lists of the negated
type.

A sweep returns ``(work, new records, their bucket keys, skip-till-next
takes)``, each filled in the order of an edge-by-edge, record-by-record
scan, so the work units and what the engine emits do not depend on how
the guards are grouped.

Strings spliced into the source are quoted with ``repr``; numbers and
objects are names bound in the namespace.  Faults count as in ``expr``:
operands are evaluated left to right, the functions of ``expr.CHECKED``
check them, and a fault makes its conjunct false and is counted once.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from . import expr as ex
from .model import MatchRecord, SelectionPolicy, StepKind, WindowKind

_INFIX = {"+": "+", "-": "-", "*": "*",
          "<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "=="}
# namespace names of the operators and functions that can fault
_CHECKED = {"/": "div", "^": "power", "sqrt": "sqrt", "sin": "sin",
            "cos": "cos", "arcsin": "arcsin", "arccos": "arccos"}
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
        self.names = {}       # id(value) -> namespace name
        self.ns = {"MatchRecord": MatchRecord, "FAULTS": ex.FAULTS,
                   "fault": diag.fault, "bisect_left": bisect_left,
                   "bisect_right": bisect_right}
        self.ns.update((_CHECKED[k], f) for k, f in ex.CHECKED.items())

    def bind(self, value, hint: str) -> str:
        """The namespace name of ``value``, new on its first binding."""
        name = self.names.get(id(value))
        if name is None:
            name = self.names[id(value)] = f"{hint}{len(self.ns)}"
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
            return f"{_CHECKED[e.name]}({self.num(e.arg)})"
        a, b = self.num(e.left), self.num(e.right)
        if e.op in _CHECKED:
            return f"{_CHECKED[e.op]}({a}, {b})"
        return f"({a} {_INFIX[e.op]} {b})"

    def checks(self, out: list, depth: int, checks, subject: str):
        """Lines setting ``ok`` to the conjunction of ``checks``, stopping
        at the first false one; SAME compares ``subject``'s attribute."""
        for i, c in enumerate(checks):
            d = depth + (i > 0)
            if i:
                out.append("    " * depth + "if ok:")
            if type(c) is ex.Same:
                out.append("    " * d + f"ok = {subject}[{c.attr!r}] == "
                           f"{self.attrs(0)}[{c.attr!r}]")
                continue
            out += ["    " * d + "try:",
                    "    " * d + f"    ok = {self.num(c.left)} "
                    f"{_INFIX[c.op]} {self.num(c.right)}",
                    "    " * d + "except FAULTS as f:",
                    "    " * d + "    ok = fault(f)"]


def generate(eng) -> tuple:
    """The source of ``eng``'s sweep module and the namespace to run it
    in; it binds ``SWEEPS``, trigger type -> sweep function."""
    plan = eng.plan
    m = _Module(plan.diag, eng.history)
    table = []
    for i, (ttype, edges) in enumerate(plan.edges_by_trigger.items()):
        out = m.sweeps
        out += [f"def sweep_{i}(d, seq, ts):  # {ttype!r}",
                "    attrs = d.attrs", "    work = {}", "    new = []",
                "    keys = []", "    taken = []"]
        for e in edges:
            out.append(f"    # {e!r}")
            if e.from_id == plan.start_id:
                _start_edge(m, eng, e)
            else:
                _edge(m, eng, e)
        out.append("    return work, new, keys, taken")
        table.append(f"{ttype!r}: sweep_{i}")
    lines = m.sweeps + m.gaps + ["SWEEPS = {" + ", ".join(table) + "}"]
    return "\n".join(lines) + "\n", m.ns


def _groups(edge) -> list:
    """The edge's guards as ``(checks, [(pattern id, guard)])``, one entry
    per shared ``checks`` tuple, in the order the tuples first occur."""
    groups = {}
    for pid, g in edge.guards.items():
        groups.setdefault(id(g.checks), (g.checks, []))[1].append((pid, g))
    return list(groups.values())


def _start_edge(m: _Module, eng, e):
    out = m.sweeps
    frm, to = m.bind(e.from_id, "I"), m.bind(e.to_id, "I")
    at = _Slots(m, 0, set())
    out += [f"    work[{frm}] = work.get({frm}, 0) + 1", "    passed = 0"]
    for checks, guards in _groups(e):
        mask = m.bind(sum(eng.bit[pid] for pid, _ in guards), "M")
        if checks:
            at.checks(out, 1, checks, "attrs")
            out.append("    if ok:")
        out.append(f"    {'    ' if checks else ''}passed |= {mask}")
    slots = "((d,),)" if e.action == "kleene-enter" else "(d,)"
    out += ["    if passed:",
            f"        new.append(MatchRecord(passed, {slots}, {to}, "
            "seq, ts, seq))",
            "        keys.append(None)",
            f"        work[{to}] = work.get({to}, 0) + 1"]


def _edge(m: _Module, eng, e):
    out = m.sweeps
    plan = eng.plan
    src = plan.states[e.from_id]
    kinds = [k for _, k in src.signature if k is not StepKind.NEGATED]
    at = _Slots(m, -1 if e.action == "kleene-extend" else src.depth,
               {p for p, k in enumerate(kinds) if k is StepKind.KLEENE_PLUS})
    unpack = "".join(f"s{p}, " for p in range(src.depth)) + "= rec.slots"
    state, buckets = m.bind(src, "S"), m.bind(src.buckets, "B")
    frm, to = m.bind(e.from_id, "I"), m.bind(e.to_id, "I")
    key = "(" + "".join(f"attrs.get({a!r}), " for a in src.key_attrs) + ")"
    out += [f"    key = {key}", "    n = 0",
            f"    for rec in {buckets}.get(key, ()):",
            "        if not rec.alive:", "            continue",
            "        bits = rec.pattern_bits", "        passed = 0"]
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
                out += [pad + f"if m & {bit} and "
                        f"{_gap(m, at, g.neg_checks, unpack)}(rec, attrs, seq):",
                        pad + f"    passed |= {bit}"]
    same_key = src.key_attrs == plan.states[e.to_id].key_attrs
    out += ["        if passed:",
            f"            new.append(MatchRecord(passed, {_CHILD[e.action]}, "
            f"{to}, rec.first_seq, rec.first_ts, seq, rec))",
            f"            keys.append({'key' if same_key else 'None'})",
            "            n += 1"]
    if next_mask:
        nxt = m.bind(next_mask, "M")
        out += [f"            if passed & {nxt}:",
                f"                taken.append((rec, passed & {nxt}))"]
    out += ["    if n:", f"        work[{to}] = work.get({to}, 0) + n",
            f"    if {state}.live > 0:",
            f"        work[{frm}] = work.get({frm}, 0) + {state}.live"]


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
