import pytest

from matchshed import expr as ex
from matchshed.model import (ConsumptionPolicy, SelectionPolicy, StepKind,
                             WindowKind)
from matchshed.parser import (PatternSyntaxError, format_pattern,
                              parse_pattern)


def test_minimal_sequence():
    p = parse_pattern("SEQ(A a, B b) WHERE a.x < b.x WITHIN 100")
    assert [s.event_type for s in p.steps] == ["A", "B"]
    assert all(s.kind is StepKind.SINGLE for s in p.steps)
    assert type(p.predicate) is ex.Cmp
    assert p.window.kind is WindowKind.COUNT
    assert p.window.size == 100


def test_kleene_pattern_with_sum():
    p = parse_pattern("SEQ(A a, B+ b[], C c, D d) "
                      "WHERE SAME [ID] AND SUM(b[].x) < c.x WITHIN 1000")
    kinds = [s.kind for s in p.steps]
    assert kinds == [StepKind.SINGLE, StepKind.KLEENE_PLUS,
                     StepKind.SINGLE, StepKind.SINGLE]
    conjs = ex.conjuncts(p.predicate)
    assert type(conjs[0]) is ex.Same and conjs[0].attr == "ID"
    assert type(conjs[1]) is ex.Cmp
    assert type(conjs[1].left) is ex.SumAgg


def test_negated_step():
    p = parse_pattern("SEQ(A a, B b, !C c, D d) "
                      "WHERE SAME [ID] AND a.x < b.x WITHIN 1000")
    assert p.steps[2].kind is StepKind.NEGATED
    assert p.steps[2].event_type == "C"


def test_time_window_and_bound_and_policy():
    p = parse_pattern("SEQ(A a, B b) WITHIN 5 s POLICY skip-next, consume")
    assert p.window.kind is WindowKind.TIME
    assert p.window.size == 5000.0
    assert p.selection is SelectionPolicy.SKIP_TILL_NEXT
    assert p.consumption is ConsumptionPolicy.CONSUME
    # a latency bound is a run setting (RunConfig.bounds), not grammar
    text = "SEQ(A a, B b) WITHIN 5 s BOUND 250 ms"
    with pytest.raises(PatternSyntaxError, match="trailing input 'BOUND'") \
            as e:
        parse_pattern(text)
    assert e.value.pos == text.index("BOUND")


def test_auto_bindings():
    p = parse_pattern("SEQ(A, B+, C) WITHIN 10")
    assert [s.binding_name for s in p.steps] == ["s1", "s2", "s3"]


def test_operator_precedence_and_functions():
    p = parse_pattern(
        "SEQ(A a, B b) WHERE 2 * 6371 * arcsin(sqrt(sin((a.x - b.x) / 2) "
        "^ 2)) <= b.v WITHIN 10")
    c = p.predicate
    assert c.op == "<="
    # 2 * 6371 * arcsin(...) groups left
    assert type(c.left) is ex.Bin and c.left.op == "*"


def test_power_right_associative():
    p = parse_pattern("SEQ(A a) WHERE a.x ^ 2 ^ 3 > 0 WITHIN 10")
    e = p.predicate.left
    assert e.op == "^" and type(e.right) is ex.Bin and e.right.op == "^"


@pytest.mark.parametrize("bad,msg", [
    ("SEQ(A a, A a) WITHIN 5", "duplicate binding"),
    ("SEQ(!A a, B b) WITHIN 5", "cannot start"),
    ("SEQ(A a, !B b) WITHIN 5", "cannot end"),
    ("SEQ(A a) WHERE z.x < 1 WITHIN 5", "unknown binding"),
    ("SEQ(A a, B b) WHERE SUM(b[].x) < 1 WITHIN 5", "non-Kleene"),
    ("SEQ(A a, B+ b[]) WHERE b.x < 1 WITHIN 5", "needs SUM"),
    # two violations: the leftmost one is reported, unknown bindings first
    ("SEQ(A a, B+ b[]) WHERE b.x < SUM(a[].x) WITHIN 5", "needs SUM"),
    ("SEQ(A a, B+ b[]) WHERE SUM(a[].x) < b.x WITHIN 5", "non-Kleene"),
    ("SEQ(A a, B+ b[]) WHERE b.x < z.x WITHIN 5", "unknown binding"),
    ("SEQ(A a, B b) WHERE a.x < b.x", "WITHIN"),
    ("SEQ(A a, B+ b[]) WHERE SUM(b.x) < 1 WITHIN 5", "expected '[]'"),
    ("SEQ(A a, B b) WITHIN 0", "window size must be positive"),
    ("SEQ(A a, B b) WITHIN 1e999", "window size must be positive"),
    ("SEQ(A a, B b) WITHIN 1e306 s", "window size must be positive"),
    ("SEQ(A a ? b) WITHIN 5", "unexpected"),
])
def test_rejects(bad, msg):
    with pytest.raises(PatternSyntaxError) as e:
        parse_pattern(bad)
    assert msg in str(e.value)
    if bad in VALIDATION_AT:
        assert e.value.pos == VALIDATION_AT[bad]


# where each validation error points: the second binding's name, the
# negated step, the offending reference's binding
VALIDATION_AT = {
    "SEQ(A a, A a) WITHIN 5": 11,
    "SEQ(!A a, B b) WITHIN 5": 4,
    "SEQ(A a, !B b) WITHIN 5": 9,
    "SEQ(A a) WHERE z.x < 1 WITHIN 5": 15,
    "SEQ(A a, B b) WHERE SUM(b[].x) < 1 WITHIN 5": 24,
    "SEQ(A a, B+ b[]) WHERE b.x < 1 WITHIN 5": 23,
}


def test_syntax_error_reports_position():
    with pytest.raises(PatternSyntaxError) as e:
        parse_pattern("SEQ(A a) WHERE a.x < WITHIN 5")
    assert e.value.pos > 0


@pytest.mark.parametrize("text", [
    "SEQ(A a, B b) WHERE a.x < b.x WITHIN 100",
    "SEQ(A a, B+ b[], C c, D d) WHERE SAME [ID] AND SUM(b[].x) < c.x "
    "WITHIN 1000",
    "SEQ(A a, B b, !C c, D d) WHERE SAME [ID] AND a.x < b.x WITHIN 1000",
    "SEQ(A a, B b) WHERE (a.x + b.x) * 2 - 1 / a.y >= b.y WITHIN 7 ms",
    "SEQ(A a, B b) WITHIN 5 s POLICY strict, reuse",
    "SEQ(A a) WHERE 0 - a.x ^ 2 < 4 WITHIN 3",
    # '[ ]' is read as '[]' and printed as it
    "SEQ(A a, B+ b[ ], C c) WHERE SUM(b [ ] .x) < c.x WITHIN 5",
])
def test_round_trip(text):
    p = parse_pattern(text, pattern_id=3)
    q = parse_pattern(format_pattern(p), pattern_id=3)
    assert p == q
    # printing is a fixpoint
    assert format_pattern(q) == format_pattern(p)
