"""One evaluation per shared guard, the emission residual, and keys that
children inherit from their parents."""

import dataclasses

import numpy as np
import pytest

import oracle
import randgen
from matchshed import cost
from matchshed import engine as me
from matchshed import expr as ex
from matchshed.engine import Engine, golden_run
from matchshed.model import ConsumptionPolicy, DataElement, SelectionPolicy
from matchshed.parser import parse_pattern
from matchshed.plan import compile_pattern, merge


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def stream_of(rng, size, alphabet="ABCDE"):
    """Elements with attributes x, ID and G; timestamps grow by 0.5 to 2
    per element, so time and count windows differ."""
    ts = np.cumsum(rng.uniform(0.5, 2.0, size))
    return [DataElement(alphabet[rng.integers(0, len(alphabet))], i,
                        float(np.round(ts[i], 3)),
                        {"x": float(np.round(rng.uniform(0, 10), 3)),
                         "ID": float(rng.integers(1, 3)),
                         "G": float(rng.integers(1, 3))})
            for i in range(size)]


def oracle_keys(stream, pattern, sel):
    """The oracle's matches under the pattern's own POLICY, if any."""
    sel = pattern.selection or sel
    if sel is SelectionPolicy.SKIP_TILL_ANY:
        got = oracle.enumerate_any(stream, pattern)
    elif sel is SelectionPolicy.STRICT_CONTIGUITY:
        got = oracle.enumerate_any(stream, pattern, strict=True)
    else:
        got = oracle.greedy_next(stream, pattern)
    if pattern.consumption is ConsumptionPolicy.CONSUME:
        got = oracle.consume_filter(stream, pattern, got)
    return got


def shared_edges(plan):
    """Edges that hold a guard of more than one pattern."""
    return [e for e in plan.edges if len(e.guards) > 1]


def distinct_checks(edge) -> int:
    return len({id(g.checks) for g in edge.guards.values()})


SAME_GUARDS = [
    # other binding names, count windows of different sizes, POLICY
    ["SEQ(A a, B b, C c, D d) WHERE SAME [ID] AND a.x < b.x "
     "AND b.x + c.x < d.x WITHIN 9",
     "SEQ(A p, B q, C r, E s) WHERE SAME [ID] AND p.x < q.x "
     "AND q.x + r.x < s.x WITHIN 6 POLICY skip-next, reuse"],
    # a count window beside a time window; strict beside consume
    ["SEQ(A a, B b, C c) WHERE a.x < b.x + 1 AND sqrt(c.x) < a.x "
     "WITHIN 8 POLICY strict, reuse",
     "SEQ(A u, B v, C w, D z) WHERE u.x < v.x + 1 AND sqrt(w.x) < u.x "
     "WITHIN 7 ms POLICY skip-any, consume",
     "SEQ(A a, B b, E e) WHERE a.x < b.x + 1 WITHIN 5 ms"],
    # Kleene prefix, SUM decided on the step after it
    ["SEQ(A a, B+ b[], C c) WHERE SAME [ID] AND SUM(b[].x) < c.x "
     "WITHIN 8",
     "SEQ(A k, B+ m[], C n, D o) WHERE SAME [ID] AND SUM(m[].x) < n.x "
     "WITHIN 6 ms POLICY skip-next, consume"],
    # Kleene suffix: the SUM is each pattern's residual, which a match
    # that is not emitted does not consume
    ["SEQ(A a, B+ b[]) WHERE SAME [ID] AND SUM(b[].x) < a.x "
     "WITHIN 8 POLICY skip-next, consume",
     "SEQ(A p, B+ q[]) WHERE SAME [ID] AND SUM(q[].x) < p.x + 2 "
     "WITHIN 6 ms"],
]


@pytest.mark.parametrize("texts", SAME_GUARDS,
                         ids=["names-windows", "count-time", "kleene",
                              "residual"])
def test_equal_guards_share_one_checks_tuple(texts):
    pats = [P(t, i) for i, t in enumerate(texts)]
    plan = merge(pats)
    assert shared_edges(plan)
    for e in shared_edges(plan):
        assert distinct_checks(e) == 1, e
    outputs_agree(pats, seed=len(texts[0]))


DIFFERENT_GUARDS = [
    # a constant differs on the B edge
    (["SEQ(A a, B b, C c) WHERE a.x < b.x + 1 AND b.x < c.x WITHIN 8",
      "SEQ(A a, B b, C c, D d) WHERE a.x < b.x + 2 AND b.x < c.x "
      "WITHIN 8"], {"AB"}),
    # the same text reads another slot: b is the second step in one
    # pattern and the first in the other
    (["SEQ(A a, B b, C c) WHERE b.x < c.x WITHIN 8",
      "SEQ(A b, B a, C c, D d) WHERE b.x < c.x WITHIN 8"], {"ABC"}),
    # a SAME attribute only one of them checks, on every edge past the
    # start edge, whose one element SAME holds on
    (["SEQ(A a, B b, C c) WHERE SAME [ID] AND a.x < b.x WITHIN 8",
      "SEQ(A a, B b, C c, D d) WHERE SAME [ID] AND SAME [G] "
      "AND a.x < b.x WITHIN 8"], {"AB", "ABC"}),
]


@pytest.mark.parametrize("texts, differs_at", DIFFERENT_GUARDS,
                         ids=["constant", "position", "same-attr"])
def test_different_guards_keep_their_own_checks(texts, differs_at):
    pats = [P(t, i) for i, t in enumerate(texts)]
    plan = merge(pats)
    sig = {s.state_id: "".join(t for t, _ in s.signature)
           for s in plan.states}
    for e in shared_edges(plan):
        want = 2 if sig[e.to_id] in differs_at else 1
        assert distinct_checks(e) == want, (sig[e.from_id], sig[e.to_id])
    outputs_agree(pats, seed=7)


def outputs_agree(pats, seed, trials=12):
    """Each pattern's matches through the merged plan equal its solo plan
    and the oracle, under every engine-wide selection policy."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        stream = stream_of(rng, 45)
        for sel in SelectionPolicy:
            merged = golden_run(stream, merge(pats), sel)
            for pid, p in enumerate(pats):
                got = {r.seq_tuple() for r in merged[pid]}
                solo = golden_run(stream, compile_pattern(
                    dataclasses.replace(p, id=0)), sel)[0]
                assert got == {r.seq_tuple() for r in solo}, (sel, pid)
                assert got == oracle_keys(stream, p, sel), (sel, pid, trial)


class CountingAttrs(dict):
    """Attributes that count their reads by subscript, the way guards
    read them (bucket keys are read with ``get``, which is not counted)."""

    reads = 0

    def __getitem__(self, name):
        CountingAttrs.reads += 1
        return dict.__getitem__(self, name)


def counting_stream(stream):
    return [DataElement(d.type_tag, d.seq_index, d.timestamp,
                        CountingAttrs(d.attrs)) for d in stream]


def test_shared_checks_cost_the_reads_of_one_pattern(monkeypatch):
    monkeypatch.setattr(CountingAttrs, "reads", 0)
    texts = SAME_GUARDS[0]
    stream = counting_stream(stream_of(np.random.default_rng(2), 1000,
                                       "ABCD"))
    golden_run(stream, compile_pattern(P(texts[0])))
    solo = CountingAttrs.reads
    CountingAttrs.reads = 0
    # the second pattern diverges only at D vs E; D-only streams keep its
    # guards on the shared edges alone
    golden_run(stream, merge([P(t, i) for i, t in enumerate(texts)]))
    assert solo > 100 and CountingAttrs.reads == solo


def test_fault_in_a_shared_check_counts_once():
    """Patterns 0 and 2 share a check; pattern 1, listed between them,
    has its own.  Each distinct check faults once."""
    pats = [P("SEQ(A a, B b, C c) WHERE a.x / b.x < 1 WITHIN 10", 0),
            P("SEQ(A a, B b, D d) WHERE a.x / b.x < 2 WITHIN 10", 1),
            P("SEQ(A p, B q, E r) WHERE p.x / q.x < 1 WITHIN 10", 2)]
    eng = Engine(merge(pats))
    for d in [DataElement("A", 0, 0.0, {"x": 1.0}),
              DataElement("B", 1, 1.0, {"x": 0.0})]:
        eng.step(d)
    assert eng.diag.div_by_zero == 2
    assert eng.live_pm_count() == 1     # only the A


def counting_eval(monkeypatch):
    """Record each call of the interpreter, by either name the engine
    could reach it by."""
    seen = []
    evaluate = ex.eval_predicate

    def counted(pred, env, diag=None):
        seen.append(pred)
        return evaluate(pred, env, diag)

    monkeypatch.setattr(me, "eval_predicate", counted)
    monkeypatch.setattr(ex, "eval_predicate", counted)
    return seen


def run_engine(plan, stream):
    eng = Engine(plan)
    out = []
    for d in stream:
        eng.expire(d.seq_index, d.timestamp)
        out += [(pid, r.seq_tuple()) for pid, r in eng.step(d).complete]
    return eng, out


def test_residuals_run_without_the_interpreter(monkeypatch):
    seen = counting_eval(monkeypatch)
    rng = np.random.default_rng(5)
    with_residual = 0
    for trial in range(40):
        pats = [randgen.random_pattern(rng, "ABCD", pid) for pid in range(2)]
        plan = merge(pats)
        run_engine(plan, randgen.random_stream(rng, 40, "ABCD"))
        assert seen == [], trial
        with_residual += bool(plan.residuals)
    assert 0 < with_residual < 40


def test_final_kleene_sum_is_the_only_residual(monkeypatch):
    seen = counting_eval(monkeypatch)
    pats = [P("SEQ(A a, B+ b[]) WHERE SAME [ID] AND a.x > 1 "
              "AND SUM(b[].x) < a.x WITHIN 10", 0),
            P("SEQ(A a, B+ b[]) WHERE a.x > 1 WITHIN 10", 1)]
    plan = merge(pats)
    ((key, residual),) = plan.residuals.items()
    assert key[0] == 0
    assert residual == (ex.Cmp("<", ex.SumAgg(1, "x"), ex.AttrRef(0, "x")),)
    stream = [DataElement(t, i, float(i), {"x": x, "ID": 1.0})
              for i, (t, x) in enumerate([("A", 5.0), ("B", 3.0),
                                          ("B", 4.0)])]
    eng, out = run_engine(plan, stream)
    # checked on both edges into the accepting state, kleene-enter and
    # kleene-extend
    assert eng.source.count(
        "ok = sum([el.attrs['x'] for el in s1]) < s0.attrs['x']") == 2
    # (0, 1, 2) sums to 7 and is rejected at emission, for pattern 0 only
    assert sorted(out) == [(0, (0, 1)), (0, (0, 2)), (1, (0, 1)),
                           (1, (0, 1, 2)), (1, (0, 2))]
    assert seen == []


def test_keys_are_inherited_and_buckets_hold_their_records():
    rng = np.random.default_rng(9)
    keyed = 0
    for trial in range(25):
        pats = [randgen.random_pattern(rng, "ABC", pid, max_steps=4)
                for pid in range(3)]
        plan = merge(pats)
        sketch = cost.Sketch(plan)
        eng = Engine(plan)
        created = []
        for d in randgen.random_stream(rng, 60, "ABC"):
            eng.expire(d.seq_index, d.timestamp)
            res = eng.step(d)
            for rec in res.new_pms:
                cost.sketch_update(sketch, rec, cm_pids=())
            created += res.new_pms
        for rec in created:
            assert rec.entry is sketch.table[cost.attr_key(sketch, rec)]
        for state in plan.states:
            for rec in state.buffer:
                first = rec.slots[0]
                el = first[0] if type(first) is tuple else first
                bucket = state.buckets[state.key_of(el)]
                assert any(r is rec for r in bucket)
            assert (sum(len(b) for b in state.buckets.values())
                    == len(state.buffer))
        keyed += any(s.key_attrs for s in plan.states)
    assert keyed > 0
