"""Pattern grammar parser and canonical printer.

Grammar sketch::

    pattern := 'SEQ' '(' step (',' step)* ')' ['WHERE' pred]
               'WITHIN' number [unit] ['POLICY' sel ',' cons]
    step    := ['!'] TYPE ['+'] [NAME ['[]']]
    pred    := conjunct ('AND' conjunct)*
    conjunct:= 'SAME' '[' ATTR ']' | arith cmpop arith
    arith   := term (('+'|'-') term)* ; term := pow (('*'|'/') pow)*
    pow     := factor ['^' factor]
    factor  := number | NAME '.' ATTR | 'SUM' '(' NAME '[].' ATTR ')'
             | fn '(' arith ')' | '(' arith ')' | '-' factor

Unnamed steps get generated bindings (s1, s2, ...).  Unit defaults to a
count-based window; 'ms' or 's' select a time-based window.
"""

from __future__ import annotations

import math
import re

from .expr import And, AttrRef, Bin, Cmp, Expr, Func, Num, Same, SumAgg
from .model import (ConsumptionPolicy, Pattern, PatternStep, SelectionPolicy,
                    StepKind, Window, WindowKind)

_FUNC_NAMES = ("arcsin", "arccos", "sin", "cos", "sqrt")

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|\[\s*\]|[-+*/^<>=(),.!\[\]]))"
)


class PatternSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise PatternSyntaxError(
                        f"unexpected character {text[pos]!r}", pos)
                break
            if m.lastgroup == "num":
                self.toks.append(("num", m.group("num"), m.start("num")))
            elif m.lastgroup == "name":
                self.toks.append(("name", m.group("name"), m.start("name")))
            else:   # '[ ]' is the token '[]'
                self.toks.append(("op", "".join(m.group("op").split()),
                                  m.start("op")))
            pos = m.end()
        self.i = 0
        self.refs = []  # (AttrRef or SumAgg, position of its binding)

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (
            "eof", "", len(self.text))

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise PatternSyntaxError(f"expected {value!r}, got {val!r}", pos)
        return val

    def accept(self, value: str) -> bool:
        if self.peek()[1] == value:
            self.i += 1
            return True
        return False


def _parse_step(tk: _Tokens, auto_idx: int) -> tuple:
    """The next step, its position and its binding's (the step's when
    the binding is generated)."""
    start = tk.peek()[2]
    negated = tk.accept("!")
    kind, type_name, pos = tk.next()
    if kind != "name":
        raise PatternSyntaxError("expected event type", pos)
    kleene = tk.accept("+")
    binding = None
    name_pos = start
    if tk.peek()[0] == "name":
        _, binding, name_pos = tk.next()
        tk.accept("[]")
    if binding is None:
        binding = f"s{auto_idx}"
    if negated and kleene:
        raise PatternSyntaxError("a step cannot be both negated and Kleene",
                                 pos)
    step_kind = (StepKind.NEGATED if negated
                 else StepKind.KLEENE_PLUS if kleene else StepKind.SINGLE)
    return PatternStep(type_name, binding, step_kind), start, name_pos


def _parse_factor(tk: _Tokens) -> Expr:
    kind, val, pos = tk.peek()
    if tk.accept("-"):
        return Bin("-", Num(0.0), _parse_factor(tk))
    if tk.accept("("):
        e = _parse_arith(tk)
        tk.expect(")")
        return e
    if kind == "num":
        tk.next()
        return Num(float(val))
    if kind == "name":
        if val == "SUM":
            tk.next()
            tk.expect("(")
            bkind, bname, bpos = tk.next()
            if bkind != "name":
                raise PatternSyntaxError("expected binding in SUM", bpos)
            tk.expect("[]")
            tk.expect(".")
            akind, attr, apos = tk.next()
            if akind != "name":
                raise PatternSyntaxError("expected attribute in SUM", apos)
            tk.expect(")")
            ref = SumAgg(bname, attr)
            tk.refs.append((ref, bpos))
            return ref
        if val in _FUNC_NAMES:
            tk.next()
            tk.expect("(")
            arg = _parse_arith(tk)
            tk.expect(")")
            return Func(val, arg)
        tk.next()
        tk.expect(".")
        akind, attr, apos = tk.next()
        if akind != "name":
            raise PatternSyntaxError("expected attribute name", apos)
        ref = AttrRef(val, attr)
        tk.refs.append((ref, pos))
        return ref
    raise PatternSyntaxError(f"unexpected token {val!r}", pos)


def _parse_pow(tk: _Tokens) -> Expr:
    base = _parse_factor(tk)
    if tk.accept("^"):
        return Bin("^", base, _parse_pow(tk))
    return base


def _parse_term(tk: _Tokens) -> Expr:
    e = _parse_pow(tk)
    while tk.peek()[1] in ("*", "/"):
        op = tk.next()[1]
        e = Bin(op, e, _parse_pow(tk))
    return e


def _parse_arith(tk: _Tokens) -> Expr:
    e = _parse_term(tk)
    while tk.peek()[1] in ("+", "-"):
        op = tk.next()[1]
        e = Bin(op, e, _parse_term(tk))
    return e


def _parse_conjunct(tk: _Tokens) -> Expr:
    if tk.peek()[1] == "SAME":
        tk.next()
        tk.expect("[")
        kind, attr, pos = tk.next()
        if kind != "name":
            raise PatternSyntaxError("expected attribute in SAME", pos)
        tk.expect("]")
        return Same(attr)
    left = _parse_arith(tk)
    kind, op, pos = tk.next()
    if op not in ("<", "<=", ">", ">=", "="):
        raise PatternSyntaxError(f"expected comparison, got {op!r}", pos)
    right = _parse_arith(tk)
    return Cmp(op, left, right)


def _parse_pred(tk: _Tokens) -> Expr:
    items = [_parse_conjunct(tk)]
    while tk.accept("AND"):
        items.append(_parse_conjunct(tk))
    return items[0] if len(items) == 1 else And(tuple(items))


def _validate(parsed, refs):
    """Check the steps of ``_parse_step`` and the predicate's references
    ``refs`` in text order; each error points at the offending token."""
    seen = set()
    for s, _, name_pos in parsed:
        if s.binding_name in seen:
            raise PatternSyntaxError("duplicate binding name", name_pos)
        seen.add(s.binding_name)
    (first, first_pos, _), (last, last_pos, _) = parsed[0], parsed[-1]
    if first.kind is StepKind.NEGATED:
        raise PatternSyntaxError("pattern cannot start with a negated step",
                                 first_pos)
    if last.kind is StepKind.NEGATED:
        raise PatternSyntaxError("pattern cannot end with a negated step",
                                 last_pos)
    by_name = {s.binding_name: s for s, _, _ in parsed}
    for n, pos in refs:
        if n.binding not in by_name:
            raise PatternSyntaxError(f"unknown binding {n.binding!r}", pos)
    # each Kleene binding is read by SUM, and SUM by no other
    for n, pos in refs:
        kleene = by_name[n.binding].kind is StepKind.KLEENE_PLUS
        if type(n) is SumAgg and not kleene:
            raise PatternSyntaxError(
                f"SUM over non-Kleene binding {n.binding!r}", pos)
        if type(n) is AttrRef and kleene:
            raise PatternSyntaxError(
                f"Kleene binding {n.binding!r} needs SUM or SAME", pos)


_SEL = {"skip-any": SelectionPolicy.SKIP_TILL_ANY,
        "skip-next": SelectionPolicy.SKIP_TILL_NEXT,
        "strict": SelectionPolicy.STRICT_CONTIGUITY}
_CONS = {"reuse": ConsumptionPolicy.REUSE,
         "consume": ConsumptionPolicy.CONSUME}


def parse_pattern(text: str, pattern_id: int = 0) -> Pattern:
    """Parse one pattern definition; raises PatternSyntaxError on bad input."""
    tk = _Tokens(text)
    tk.expect("SEQ")
    tk.expect("(")
    parsed = [_parse_step(tk, 1)]
    while tk.accept(","):
        parsed.append(_parse_step(tk, len(parsed) + 1))
    tk.expect(")")
    predicate = None
    if tk.accept("WHERE"):
        predicate = _parse_pred(tk)
    kind, val, pos = tk.next()
    if val != "WITHIN":
        raise PatternSyntaxError("expected WITHIN clause", pos)
    kind, num, pos = tk.next()
    if kind != "num":
        raise PatternSyntaxError("expected window size", pos)
    size = float(num)
    wkind = WindowKind.COUNT
    if tk.peek()[1] in ("ms", "s"):
        unit = tk.next()[1]
        wkind = WindowKind.TIME
        if unit == "s":
            size *= 1000.0
    if not 0 < size < math.inf:
        raise PatternSyntaxError("window size must be positive and finite",
                                 pos)
    selection = consumption = None
    if tk.accept("POLICY"):
        kind, sel, pos = tk.next()
        while tk.peek()[1] == "-":  # skip-any / skip-next are three tokens
            tk.next()
            sel += "-" + tk.next()[1]
        if sel not in _SEL:
            raise PatternSyntaxError(f"unknown selection policy {sel!r}", pos)
        selection = _SEL[sel]
        tk.expect(",")
        kind, cons, pos = tk.next()
        if cons not in _CONS:
            raise PatternSyntaxError(f"unknown consumption policy {cons!r}",
                                     pos)
        consumption = _CONS[cons]
    kind, val, pos = tk.peek()
    if kind != "eof":
        raise PatternSyntaxError(f"trailing input {val!r}", pos)
    _validate(parsed, tk.refs)
    return Pattern(id=pattern_id, steps=tuple(s for s, _, _ in parsed),
                   predicate=predicate, window=Window(wkind, size),
                   selection=selection, consumption=consumption)


# ---------------------------------------------------------------- printer

_PREC = {"<": 0, "<=": 0, ">": 0, ">=": 0, "=": 0,
         "+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _fmt_expr(e: Expr, parent_prec: int = -1) -> str:
    if type(e) is Num:
        return _fmt_num(e.value)
    if type(e) is AttrRef:
        return f"{e.binding}.{e.attr}"
    if type(e) is SumAgg:
        return f"SUM({e.binding}[].{e.attr})"
    if type(e) is Func:
        return f"{e.name}({_fmt_expr(e.arg)})"
    if type(e) is Bin:
        p = _PREC[e.op]
        s = f"{_fmt_expr(e.left, p)} {e.op} {_fmt_expr(e.right, p + 1)}"
        if e.op == "^":  # right-assoc
            s = f"{_fmt_expr(e.left, p + 1)} ^ {_fmt_expr(e.right, p)}"
        return f"({s})" if p < parent_prec else s
    if type(e) is Cmp:
        return f"{_fmt_expr(e.left, 1)} {e.op} {_fmt_expr(e.right, 1)}"
    if type(e) is Same:
        return f"SAME [{e.attr}]"
    if type(e) is And:
        return " AND ".join(_fmt_expr(i) for i in e.items)
    raise TypeError(f"unexpected node {e!r}")


def format_pattern(p: Pattern) -> str:
    """Canonical text form; parse(format(p)) is structurally equal to p."""
    parts = []
    for s in p.steps:
        if s.kind is StepKind.NEGATED:
            parts.append(f"!{s.event_type} {s.binding_name}")
        elif s.kind is StepKind.KLEENE_PLUS:
            parts.append(f"{s.event_type}+ {s.binding_name}[]")
        else:
            parts.append(f"{s.event_type} {s.binding_name}")
    out = f"SEQ({', '.join(parts)})"
    if p.predicate is not None:
        out += f" WHERE {_fmt_expr(p.predicate)}"
    if p.window.kind is WindowKind.COUNT:
        out += f" WITHIN {_fmt_num(p.window.size)}"
    else:
        out += f" WITHIN {_fmt_num(p.window.size)} ms"
    if p.selection is not None and p.consumption is not None:
        out += f" POLICY {p.selection.value}, {p.consumption.value}"
    return out
