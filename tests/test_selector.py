import numpy as np

from matchshed import cost
from matchshed.cost import Sketch, attr_key, estimate
from matchshed.engine import LatencyMonitor
from matchshed.model import DataElement, MatchRecord
from matchshed.parser import parse_pattern
from matchshed.plan import merge
from matchshed.psd import assess
from matchshed.selector import budgets, select, trigger


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def el(tag, seq, ID=1.0):
    return DataElement(tag, seq, float(seq), {"ID": ID})


def rec(state_id, seq, bits, ID):
    e = el("A", seq, ID=ID)
    return MatchRecord(bits, (e,), state_id, seq, float(seq), seq, float(seq))


def two_pattern_setup():
    """Plan with clusters [11] (shared SP(A)), [10] (AB), [01] (AC)."""
    plan = merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 100", 0),
                  P("SEQ(A a, C c) WHERE SAME [ID] WITHIN 100", 1)],
                 mode="view")
    index = assess(plan)
    return plan, index, Sketch(plan)


def add_pm(plan, index, sketch, cluster_bits, seq, ID, pn, cn=None):
    state = next(s for s in plan.states
                 if s.psd == cluster_bits and s.state_id != plan.start_id)
    pm = rec(state.state_id, seq, cluster_bits, ID)
    plan.insert(pm)
    index.insert(pm)
    e = cost.SketchEntry(2)
    e.pn = [float(v) for v in pn]
    e.cn = [float(v) for v in (cn or (0, 0))]
    sketch.table[attr_key(sketch, pm)] = e
    return pm


def monitor_with(lat):
    m = LatencyMonitor(len(lat))
    m.latency_ms = list(lat)
    return m


def test_trigger_bitmap():
    assert trigger(monitor_with([1.0, 2.0, 3.0]), [10, 10, 10]) == 0b000
    assert trigger(monitor_with([1.0, 20.0, 30.0]), [10, 10, 10]) == 0b011
    # exactly at the bound counts as overloaded
    assert trigger(monitor_with([10.0, 1.0, 1.0]), [10, 10, 10]) == 0b100


def test_budget_ratio_and_hand_sum():
    plan, index, sketch = two_pattern_setup()
    for j, d in enumerate((1, 2, 3)):
        add_pm(plan, index, sketch, 0b10, j, float(j), pn=(d, 0))
    mon = monitor_with([20.0, 1.0])
    b = budgets(index, sketch, mon, [10.0, 10.0])
    assert set(b) == {0}          # only the overloaded pattern has a budget
    assert b[0] == 3.0            # (10/20) * (1+2+3)


def test_budget_empty_when_no_pms():
    plan, index, sketch = two_pattern_setup()
    b = budgets(index, sketch, monitor_with([20.0, 20.0]), [10.0, 10.0])
    assert b == {0: 0.0, 1: 0.0}


def test_non_overloaded_cluster_untouched():
    plan, index, sketch = two_pattern_setup()
    safe = add_pm(plan, index, sketch, 0b10, 0, 1.0, pn=(100, 0))
    hot = add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 100))
    audit = select(index, 0b01, {1: 0.0}, sketch)
    assert safe.alive and not hot.alive
    assert audit.kept == 1 and audit.discarded == 1


def test_higher_psd_cluster_drains_first():
    plan, index, sketch = two_pattern_setup()
    shared = add_pm(plan, index, sketch, 0b11, 0, 1.0, pn=(1, 1), cn=(1, 1))
    solo = add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 1), cn=(0, 9))
    # budget admits exactly one unit of P2 overhead; the shared cluster is
    # admitted first despite the solo PM's higher contribution
    audit = select(index, 0b01, {1: 1.0}, sketch)
    assert shared.alive and not solo.alive
    assert audit.spend[1] == 1.0


def test_select_safety_and_maximality_random():
    rng = np.random.default_rng(23)
    for _ in range(60):
        plan, index, sketch = two_pattern_setup()
        pms = []
        for j in range(int(rng.integers(1, 13))):
            cl = (0b11, 0b10, 0b01)[rng.integers(0, 3)]
            pn = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            cn = (int(rng.integers(0, 5)), int(rng.integers(0, 5)))
            pms.append(add_pm(plan, index, sketch, cl, j, float(j),
                              pn=pn, cn=cn))
        b_ol = (0b10, 0b01, 0b11)[rng.integers(0, 3)]
        budget_map = {i: float(rng.integers(0, 12)) for i in range(2)
                      if b_ol & (0b10 >> i)}
        before = {id(p): estimate(sketch, p) for p in pms}
        select(index, b_ol, budget_map, sketch)
        spend = {i: 0.0 for i in budget_map}
        for p in pms:
            if p.alive:
                for i in budget_map:
                    if p.pattern_bits & (0b10 >> i):
                        spend[i] += before[id(p)].overhead[i]
        for i in budget_map:  # safety
            assert spend[i] <= budget_map[i] + 1e-9
        for p in pms:         # maximality: every discard is justified
            if not p.alive:
                assert any(
                    p.pattern_bits & (0b10 >> i)
                    and spend[i] + before[id(p)].overhead[i]
                    > budget_map[i] + 1e-9
                    for i in budget_map)


def test_select_idempotent_on_kept_set():
    rng = np.random.default_rng(31)
    plan, index, sketch = two_pattern_setup()
    for j in range(10):
        add_pm(plan, index, sketch, (0b11, 0b10, 0b01)[j % 3], j, float(j),
               pn=(j % 4, (j + 1) % 4), cn=(1, 1))
    budget_map = {0: 6.0, 1: 6.0}
    first = select(index, 0b11, budget_map, sketch)
    second = select(index, 0b11, budget_map, sketch)
    assert second.discarded == 0
    assert second.kept == first.kept


def test_audit_row_shape():
    plan, index, sketch = two_pattern_setup()
    add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 2))
    audit = select(index, 0b01, {1: 5.0}, sketch, now_ts=7.0)
    row = audit.csv_row(2)
    assert row[0] == "7.0" and row[1] == "[01]"
    assert row[4] == "P2:2/5"
