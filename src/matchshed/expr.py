"""Predicate expression trees and their evaluation.

Expressions are conjunctions of comparisons over binding attributes, with
arithmetic, a SUM aggregate over Kleene bindings, sqrt/trig functions, and
a SAME shorthand (one attribute equal across all bindings).

Evaluation is *partial*: a conjunct that references a binding missing from
the environment is deferred, i.e. treated as satisfiable.  Division by zero
(also zero to a negative power), domain errors (arcsin/arccos outside
[-1, 1], sqrt of a negative, either of them of NaN, sin/cos of a
non-finite value, a negative base to a fractional power) and overflowing
powers make the conjunct false and bump a diagnostic counter.  NaN in a
bare comparison is not a fault: the comparison is false, uncounted.

The operations that can fault are the functions of ``CHECKED``.  The
engine's generated sweep code (``sweep``) inlines them instead: plain
division, whose ``ZeroDivisionError`` counts as ``div_by_zero``, ``**``
for a non-negative integral constant exponent, and the ``math``
function behind its domain test, calling the function of ``CHECKED``
only for an argument outside it, to raise the fault.  Both count the
same faults in the same order: operands left to right, then the check.
The engine evaluates every conjunct, residuals included, in that
generated code and never calls ``eval_predicate``; this interpreter is
the reference that ``tests/oracle.py`` and the sweep tests compare
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


class Expr:
    pass


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class AttrRef(Expr):
    binding: str
    attr: str


@dataclass(frozen=True)
class SumAgg(Expr):
    """SUM(b[].attr) over a Kleene binding's element list."""
    binding: str
    attr: str


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Func(Expr):
    name: str  # sin cos arcsin arccos sqrt
    arg: Expr


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # < <= > >= =
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Same(Expr):
    """SAME [attr]: the attribute is equal across all bound elements."""
    attr: str


@dataclass(frozen=True)
class And(Expr):
    items: tuple


@dataclass
class EvalDiagnostics:
    div_by_zero: int = 0
    domain_error: int = 0
    overflow: int = 0

    def fault(self, exc) -> bool:
        """Count one fault, an exception of ``FAULTS``; returns False, the
        value of the conjunct it hit."""
        t = type(exc)
        kind = (exc.kind if t is _MathFault else
                "div_by_zero" if t is ZeroDivisionError else "overflow")
        setattr(self, kind, getattr(self, kind) + 1)
        return False


class _Unbound(Exception):
    """A referenced binding is not in the environment."""


class _MathFault(Exception):
    def __init__(self, kind):
        self.kind = kind


# what a faulting operation raises: the functions of ``CHECKED`` raise a
# ``_MathFault`` or pass on an ``OverflowError``; the generated code's
# plain ``/`` raises ``ZeroDivisionError``, its ``**`` ``OverflowError``
FAULTS = (_MathFault, OverflowError, ZeroDivisionError)


def _div(a, b):
    if b == 0:
        raise _MathFault("div_by_zero")
    return a / b


def _pow(a, b):
    try:
        r = a ** b
    except ZeroDivisionError:  # 0 to a negative power
        raise _MathFault("div_by_zero") from None
    if type(r) is complex:  # negative base, fractional power
        raise _MathFault("domain_error")
    return r


def _sqrt(x):
    if not x >= 0:  # NaN fails too
        raise _MathFault("domain_error")
    return math.sqrt(x)


def _arc(fn):
    def checked(x):
        if not abs(x) <= 1:  # NaN fails too
            raise _MathFault("domain_error")
        return fn(x)
    return checked


def _periodic(fn):
    def checked(x):
        if not math.isfinite(x):
            raise _MathFault("domain_error")
        return fn(x)
    return checked


# the operators and functions that can fault, by their grammar name
CHECKED = {"/": _div, "^": _pow, "sqrt": _sqrt,
           "arcsin": _arc(math.asin), "arccos": _arc(math.acos),
           "sin": _periodic(math.sin), "cos": _periodic(math.cos)}


def _num(e: Expr, env: dict) -> float:
    if type(e) is Num:
        return e.value
    if type(e) is AttrRef:
        try:
            v = env[e.binding]
        except KeyError:
            raise _Unbound() from None
        if isinstance(v, (tuple, list)):
            raise _Unbound()  # Kleene binding still open; only SUM may read it
        return v.attrs[e.attr]
    if type(e) is SumAgg:
        try:
            v = env[e.binding]
        except KeyError:
            raise _Unbound() from None
        if not isinstance(v, (tuple, list)):
            v = (v,)
        return sum(el.attrs[e.attr] for el in v)
    if type(e) is Bin:
        a = _num(e.left, env)
        b = _num(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return CHECKED[e.op](a, b)
    if type(e) is Func:
        return CHECKED[e.name](_num(e.arg, env))
    raise TypeError(f"not a numeric expression: {e!r}")


def _conjunct(e: Expr, env: dict, diag: Optional[EvalDiagnostics]) -> bool:
    try:
        if type(e) is Cmp:
            a = _num(e.left, env)
            b = _num(e.right, env)
            if e.op == "<":
                return a < b
            if e.op == "<=":
                return a <= b
            if e.op == ">":
                return a > b
            if e.op == ">=":
                return a >= b
            if e.op == "=":
                return a == b
            raise ValueError(f"unknown comparison {e.op!r}")
        if type(e) is Same:
            vals = set()
            for v in env.values():
                for el in (v if isinstance(v, (tuple, list)) else (v,)):
                    vals.add(el.attrs[e.attr])
            return len(vals) <= 1
        raise TypeError(f"not a boolean conjunct: {e!r}")
    except _Unbound:
        return True  # deferred: may still hold once the binding arrives
    except FAULTS as f:
        if diag is not None:
            diag.fault(f)
        return False


def conjuncts(expr: Optional[Expr]) -> tuple:
    """Flatten an AND tree into its conjunct list."""
    if expr is None:
        return ()
    if type(expr) is And:
        out = []
        for it in expr.items:
            out.extend(conjuncts(it))
        return tuple(out)
    return (expr,)


def eval_predicate(expr: Optional[Expr], env: dict,
                   diag: Optional[EvalDiagnostics] = None) -> bool:
    """Evaluate a predicate against env (binding -> element or element list).

    Conjuncts referencing bindings absent from env are deferred (true).
    """
    return all(_conjunct(c, env, diag) for c in conjuncts(expr))


def nodes(e: Optional[Expr]):
    """The nodes of ``e``, depth first and left to right, each before its
    operands; ``None`` has none."""
    stack = [] if e is None else [e]
    while stack:
        e = stack.pop()
        yield e
        t = type(e)
        if t is Bin or t is Cmp:
            stack += (e.right, e.left)
        elif t is Func:
            stack.append(e.arg)
        elif t is And:
            stack += reversed(e.items)


def referenced_bindings(e: Optional[Expr]) -> frozenset:
    """Bindings a (sub)expression reads; Same reads none by name."""
    return frozenset(n.binding for n in nodes(e)
                     if type(n) is AttrRef or type(n) is SumAgg)
