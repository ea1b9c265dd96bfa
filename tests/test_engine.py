import dataclasses

import numpy as np
import pytest

import oracle
import randgen
from matchshed.engine import Engine, LatencyMonitor, golden_run, measure
from matchshed.model import (ConsumptionPolicy, DataElement, SelectionPolicy)
from matchshed.parser import parse_pattern
from matchshed.plan import compile_pattern, merge


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def el(tag, seq, **attrs):
    attrs.setdefault("x", 0.0)
    attrs.setdefault("ID", 1.0)
    return DataElement(tag, seq, float(seq),
                       {k: float(v) for k, v in attrs.items()})


def keys(recs):
    return {r.seq_tuple() for r in recs}


def run_policy(stream, pattern, sel, cons=ConsumptionPolicy.REUSE):
    plan = compile_pattern(pattern)
    return keys(golden_run(stream, plan, sel, cons)[0])


AABB = [el("A", 0), el("A", 1), el("B", 2), el("B", 3)]


def test_skip_till_any_forks():
    got = run_policy(AABB, P("SEQ(A a, B b) WITHIN 10"),
                     SelectionPolicy.SKIP_TILL_ANY)
    assert got == {(0, 2), (0, 3), (1, 2), (1, 3)}


def test_strict_contiguity_adjacent_only():
    got = run_policy(AABB, P("SEQ(A a, B b) WITHIN 10"),
                     SelectionPolicy.STRICT_CONTIGUITY)
    assert got == {(1, 2)}


def test_skip_till_next_takes_first():
    got = run_policy(AABB, P("SEQ(A a, B b) WITHIN 10"),
                     SelectionPolicy.SKIP_TILL_NEXT)
    assert got == {(0, 2), (1, 2)}


def test_consume_tombstones_elements():
    got = run_policy(AABB, P("SEQ(A a, B b) WITHIN 10"),
                     SelectionPolicy.SKIP_TILL_ANY, ConsumptionPolicy.CONSUME)
    # (0,2) emitted first, consuming 0 and 2; (1,3) is the only other
    # candidate with unconsumed elements
    assert got == {(0, 2), (1, 3)}


def test_negation_blocks_gap():
    pat = P("SEQ(A a, !B b, C c) WITHIN 10")
    blocked = [el("A", 0), el("B", 1), el("C", 2)]
    clear = [el("A", 0), el("D", 1), el("C", 2)]
    assert run_policy(blocked, pat, SelectionPolicy.SKIP_TILL_ANY) == set()
    assert run_policy(clear, pat,
                      SelectionPolicy.SKIP_TILL_ANY) == {(0, 2)}


def test_negation_predicate_narrows_blockers():
    pat = P("SEQ(A a, !B b, C c) WHERE b.x > a.x WITHIN 10")
    stream = [el("A", 0, x=5), el("B", 1, x=3), el("C", 2)]
    # the B in the gap fails b.x > a.x, so it does not block
    assert run_policy(stream, pat,
                      SelectionPolicy.SKIP_TILL_ANY) == {(0, 2)}
    stream[1] = el("B", 1, x=9)
    assert run_policy(stream, pat, SelectionPolicy.SKIP_TILL_ANY) == set()


def test_kleene_enumerates_subsets():
    pat = P("SEQ(A a, B+ b[], C c) WITHIN 10")
    stream = [el("A", 0), el("B", 1), el("B", 2), el("C", 3)]
    got = run_policy(stream, pat, SelectionPolicy.SKIP_TILL_ANY)
    assert got == {(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)}


def test_expire_count_window():
    plan = compile_pattern(P("SEQ(A a, B b) WITHIN 3"))
    eng = Engine(plan)
    assert eng.expire(0, 0.0) == 0  # empty buffers
    eng.step(el("A", 1))
    assert eng.expire(5, 5.0) == 1  # 5 - 1 > 3
    assert eng.live_pm_count() == 0


def test_expire_mixed_ownership_clears_bit():
    pats = [P("SEQ(A a, B b) WITHIN 10", 0), P("SEQ(A a, C c) WITHIN 3", 1)]
    plan = merge(pats, mode="view")
    eng = Engine(plan)
    eng.step(el("A", 1))
    (rec,) = list(plan.live_records())
    assert rec.pattern_bits == 0b11
    eng.expire(6, 6.0)  # outside W=3, inside W=10
    (rec,) = list(plan.live_records())
    assert rec.pattern_bits == 0b10
    assert eng.counters.pms_expired == 0


def test_window_soundness_on_emission():
    pat = P("SEQ(A a, B b) WITHIN 3")
    stream = [el("A", 0), el("B", 5)]
    assert run_policy(stream, pat, SelectionPolicy.SKIP_TILL_ANY) == set()


def test_measure_even_split_among_sharers():
    pats = [P("SEQ(A a, B b) WITHIN 5", 0), P("SEQ(A a, C c) WITHIN 5", 1),
            P("SEQ(D d, E e) WITHIN 5", 2)]
    plan = merge(pats, mode="view")
    for s in plan.states:
        s.psd = 0
    # state 1 is the shared SP(A) for patterns 0 and 1
    plan.states[1].psd = 0b110
    mon = LatencyMonitor(3, alpha=1.0)
    measure(mon, 10.0, {1: 4}, plan)
    assert mon.latency_ms == [5.0, 5.0, 0.0]


def test_measure_zero_work_is_noop():
    plan = compile_pattern(P("SEQ(A a, B b) WITHIN 5"))
    mon = LatencyMonitor(1, alpha=0.5)
    mon.latency_ms[0] = 3.0
    measure(mon, 10.0, {}, plan)
    assert mon.latency_ms == [3.0]


def test_measure_alpha_zero_freezes():
    plan = compile_pattern(P("SEQ(A a, B b) WITHIN 5"))
    plan.states[1].psd = 0b1
    mon = LatencyMonitor(1, alpha=0.0)
    mon.latency_ms[0] = 3.0
    measure(mon, 10.0, {1: 2}, plan)
    assert mon.latency_ms == [3.0]


def test_deterministic_emission_order():
    pat = P("SEQ(A a, B b) WITHIN 10")
    outs = []
    for _ in range(3):
        plan = compile_pattern(pat)
        out = golden_run(AABB, plan)[0]
        outs.append([(r.seq_tuple(), r.emit_index) for r in out])
    assert outs[0] == outs[1] == outs[2]


POLICIES = [SelectionPolicy.SKIP_TILL_ANY, SelectionPolicy.SKIP_TILL_NEXT,
            SelectionPolicy.STRICT_CONTIGUITY]


def oracle_for(stream, pattern, sel):
    if sel is SelectionPolicy.SKIP_TILL_ANY:
        return oracle.enumerate_any(stream, pattern)
    if sel is SelectionPolicy.STRICT_CONTIGUITY:
        return oracle.enumerate_any(stream, pattern, strict=True)
    return oracle.greedy_next(stream, pattern)


@pytest.mark.parametrize("force", ["plain", "kleene", "neg"])
def test_engine_matches_oracle(force):
    rng = np.random.default_rng({"plain": 1, "kleene": 2, "neg": 3}[force])
    for trial in range(40):
        pat = randgen.random_pattern(rng, "ABCD", 0, force=force)
        stream = randgen.random_stream(rng, int(rng.integers(20, 60)),
                                       "ABCD")
        for sel in POLICIES:
            want = oracle_for(stream, pat, sel)
            got = run_policy(stream, pat, sel)
            assert got == want, (sel, pat, trial)
            want_c = oracle.consume_filter(stream, pat, want)
            got_c = run_policy(stream, pat, sel, ConsumptionPolicy.CONSUME)
            assert got_c == want_c, ("consume", sel, pat, trial)


def test_overflowing_guard_fails_without_crashing():
    """A guard whose power overflows is false, as a domain error is."""
    pat = P("SEQ(A a, B b) WHERE a.x ^ 3 < b.x WITHIN 10")
    got = golden_run([el("A", 0, x=1e200), el("B", 1, x=1)],
                     compile_pattern(pat))
    assert got == {0: []}
    got = golden_run([el("A", 0, x=1), el("B", 1, x=2)], compile_pattern(pat))
    assert keys(got[0]) == {(0, 1)}


# guard over a.x, an A value that faults, and the diagnostic it counts
MATH_FAULTS = [
    ("sin(a.x * a.x) < b.x", 1e200, "domain_error"),   # sin(inf)
    ("cos(a.x * a.x - a.x * a.x) < b.x", 1e200, "domain_error"),  # cos(nan)
    ("a.x ^ 0.5 < b.x", -8.0, "domain_error"),         # complex power
    ("a.x ^ -1 < b.x", 0.0, "div_by_zero"),            # 0 ^ -1
]


@pytest.mark.parametrize("guard, bad, kind", MATH_FAULTS)
def test_math_fault_in_guard_fails_without_crashing(guard, bad, kind):
    pat = P(f"SEQ(A a, B b) WHERE {guard} WITHIN 10")
    got = golden_run([el("A", 0, x=bad), el("B", 1, x=9)],
                     compile_pattern(pat))
    assert got == {0: []}
    got = golden_run([el("A", 0, x=1), el("B", 1, x=9)],
                     compile_pattern(pat))
    assert keys(got[0]) == {(0, 1)}


@pytest.mark.parametrize("guard, bad, kind", MATH_FAULTS)
def test_math_fault_at_emission_is_counted(guard, bad, kind):
    """The same faults under SUM over a final Kleene step, which only the
    interpreter checks, at emission."""
    guard = guard.replace("a.x", "SUM(b[].x)").replace("b.x", "a.x")
    pat = P(f"SEQ(A a, B+ b[]) WHERE {guard} WITHIN 10")
    eng = Engine(compile_pattern(pat))
    emitted = []
    for d in [el("A", 0, x=9), el("B", 1, x=bad), el("B", 2, x=1)]:
        eng.expire(d.seq_index, d.timestamp)
        emitted += [r.seq_tuple() for _, r in eng.step(d).complete]
    # (0, 1) faults; (0, 1, 2) sums to bad + 1, which faults as well
    # except for 0 ^ -1
    assert (0, 2) in emitted and (0, 1) not in emitted
    assert getattr(eng.diag, kind) == (1 if bad == 0.0 else 2)


def test_overflow_at_emission_is_counted():
    """SUM over a final Kleene step is checked only at emission, by the
    interpreter, which counts the overflow in the engine's diagnostics."""
    pat = P("SEQ(A a, B+ b[]) WHERE SUM(b[].x) ^ 3 > a.x WITHIN 10")
    eng = Engine(compile_pattern(pat))
    emitted = []
    for d in [el("A", 0, x=1), el("B", 1, x=1e200), el("B", 2, x=2)]:
        eng.expire(d.seq_index, d.timestamp)
        emitted += [r.seq_tuple() for _, r in eng.step(d).complete]
    assert emitted == [(0, 2)]
    assert eng.diag.overflow == 2   # (0, 1) and (0, 1, 2)


def test_division_by_zero_in_guard_is_counted():
    pat = P("SEQ(A a, B b) WHERE a.x / b.x < 1 WITHIN 10")
    eng = Engine(compile_pattern(pat))
    for d in [el("A", 0, x=1), el("B", 1, x=0)]:
        eng.expire(d.seq_index, d.timestamp)
        assert eng.step(d).complete == []
    assert eng.diag.div_by_zero == 1


@pytest.mark.parametrize("guard, bad, kind", MATH_FAULTS)
def test_math_fault_in_guard_is_counted_once(guard, bad, kind):
    eng = Engine(compile_pattern(P(f"SEQ(A a, B b) WHERE {guard} WITHIN 10")))
    for d in [el("A", 0, x=bad), el("B", 1, x=9)]:
        eng.expire(d.seq_index, d.timestamp)
        eng.step(d)
    assert dataclasses.asdict(eng.diag) == {
        "div_by_zero": 0, "domain_error": 0, "overflow": 0, kind: 1}


@pytest.mark.parametrize("guard", ["arccos(a.x * a.x - a.x * a.x) < b.x",
                                   "sqrt(a.x * a.x - a.x * a.x) < b.x"])
def test_nan_trig_or_root_argument_is_a_domain_error(guard):
    """x * x - x * x is inf - inf, NaN, for x = 1e200."""
    eng = Engine(compile_pattern(P(f"SEQ(A a, B b) WHERE {guard} WITHIN 10")))
    emitted = []
    for d in [el("A", 0, x=1e200), el("B", 1, x=9), el("A", 2, x=1),
              el("B", 3, x=9)]:
        eng.expire(d.seq_index, d.timestamp)
        emitted += [r.seq_tuple() for _, r in eng.step(d).complete]
    # the A with x=1e200 faults against both Bs
    assert emitted == [(2, 3)]
    assert eng.diag.domain_error == 2
