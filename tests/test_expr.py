import dataclasses
import math

from matchshed import expr as ex
from matchshed.model import DataElement
from matchshed.parser import parse_pattern


def el(tag, seq, **attrs):
    return DataElement(tag, seq, float(seq), {k: float(v)
                                              for k, v in attrs.items()})


def pred(text):
    return parse_pattern(f"SEQ(A a, B+ b[], C c) WHERE {text} "
                         "WITHIN 100").predicate


def test_simple_comparison():
    p = pred("a.x < c.x")
    assert ex.eval_predicate(p, {"a": el("A", 0, x=1), "c": el("C", 2, x=2)})
    assert not ex.eval_predicate(p, {"a": el("A", 0, x=3),
                                     "c": el("C", 2, x=2)})


def test_same_shorthand():
    p = pred("SAME [ID]")
    env = {"a": el("A", 0, ID=7), "b": (el("B", 1, ID=7),),
           "c": el("C", 2, ID=7)}
    assert ex.eval_predicate(p, env)
    env["c"] = el("C", 2, ID=8)
    assert not ex.eval_predicate(p, env)


def test_sum_aggregate():
    p = pred("SUM(b[].x) < c.x")
    env = {"b": (el("B", 1, x=1), el("B", 2, x=2), el("B", 3, x=3)),
           "c": el("C", 4, x=7)}
    assert ex.eval_predicate(p, env)
    env["c"] = el("C", 4, x=6)
    assert not ex.eval_predicate(p, env)


def test_unbound_conjunct_is_deferred():
    p = pred("a.x < c.x")
    # c not bound yet: conjunct may still hold later
    assert ex.eval_predicate(p, {"a": el("A", 0, x=99)})


def test_open_kleene_attr_is_deferred():
    # a plain ref on a tuple value means the Kleene list is still growing
    p = pred("a.x < c.x")
    assert ex.eval_predicate(p, {"a": el("A", 0, x=1)})


def test_division_by_zero_counts_and_fails():
    p = pred("a.x / a.y > 1")
    diag = ex.EvalDiagnostics()
    assert not ex.eval_predicate(p, {"a": el("A", 0, x=1, y=0)}, diag)
    assert diag.div_by_zero == 1


def test_domain_errors_count_and_fail():
    diag = ex.EvalDiagnostics()
    p = pred("arcsin(a.x) < 1")
    assert not ex.eval_predicate(p, {"a": el("A", 0, x=2)}, diag)
    p = pred("sqrt(a.x) < 1")
    assert not ex.eval_predicate(p, {"a": el("A", 0, x=-4)}, diag)
    assert diag.domain_error == 2


def test_overflowing_power_counts_and_fails():
    diag = ex.EvalDiagnostics()
    p = pred("a.x ^ 3 < c.x")
    env = {"a": el("A", 0, x=1e200), "c": el("C", 2, x=1)}
    assert not ex.eval_predicate(p, env, diag)
    assert diag.overflow == 1 and diag.domain_error == 0


def test_trig_of_non_finite_and_complex_power_count_and_fail():
    diag = ex.EvalDiagnostics()
    c = {"c": el("C", 2, x=1)}
    assert not ex.eval_predicate(pred("sin(a.x * a.x) < c.x"),
                                 {"a": el("A", 0, x=1e200), **c}, diag)
    assert not ex.eval_predicate(pred("cos(a.x * a.x - a.x * a.x) < c.x"),
                                 {"a": el("A", 0, x=1e200), **c}, diag)
    assert not ex.eval_predicate(pred("a.x ^ 0.5 < c.x"),
                                 {"a": el("A", 0, x=-8), **c}, diag)
    assert diag.domain_error == 3
    assert not ex.eval_predicate(pred("a.x ^ -1 < c.x"),
                                 {"a": el("A", 0, x=0), **c}, diag)
    assert diag.div_by_zero == 1 and diag.overflow == 0
    # integral powers of a negative base stay real
    assert ex.eval_predicate(pred("a.x ^ 3 < c.x"),
                             {"a": el("A", 0, x=-2), **c}, diag)


def test_nan_argument_is_a_domain_error():
    """arccos, arcsin and sqrt of NaN (inf - inf for x = 1e200) are
    counted faults; NaN in a bare comparison is false and uncounted."""
    diag = ex.EvalDiagnostics()
    env = {"a": el("A", 0, x=1e200), "c": el("C", 2, x=1)}
    for fn in ("arccos", "arcsin", "sqrt"):
        assert not ex.eval_predicate(
            pred(f"{fn}(a.x * a.x - a.x * a.x) < c.x"), env, diag)
    assert diag.domain_error == 3
    assert not ex.eval_predicate(pred("a.x * a.x - a.x * a.x < c.x"), env,
                                 diag)
    assert dataclasses.asdict(diag) == {"div_by_zero": 0,
                                        "domain_error": 3, "overflow": 0}


def test_trig_and_power():
    p = pred("sin(a.x) ^ 2 + cos(a.x) ^ 2 = 1")
    # identity holds up to fp error only for exact cases; use x = 0
    assert ex.eval_predicate(p, {"a": el("A", 0, x=0)})
    p = pred("arccos(a.x) = 0")
    assert ex.eval_predicate(p, {"a": el("A", 0, x=1)})


def test_evaluation_is_pure():
    p = pred("a.x + c.x > 2")
    env = {"a": el("A", 0, x=1), "c": el("C", 1, x=2)}
    assert all(ex.eval_predicate(p, env) for _ in range(5))


def test_referenced_bindings():
    p = pred("a.x + SUM(b[].x) < c.x AND SAME [ID]")
    conjs = ex.conjuncts(p)
    assert ex.referenced_bindings(conjs[0]) == {"a", "b", "c"}
    assert ex.referenced_bindings(conjs[1]) == frozenset()


def test_conjuncts_flatten():
    p = pred("a.x < c.x AND SAME [ID] AND c.x > 0")
    assert len(ex.conjuncts(p)) == 3
    assert ex.conjuncts(None) == ()
