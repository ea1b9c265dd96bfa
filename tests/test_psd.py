import numpy as np

import randgen
from matchshed.engine import Engine
from matchshed.model import DataElement, pattern_bit, render_bitmap
from matchshed.parser import parse_pattern
from matchshed.plan import compile_pattern, merge
from matchshed.psd import ClusterIndex, assess


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def fig_plan():
    pats = [P("SEQ(A a, B b) WITHIN 10", 0),
            P("SEQ(A a, C c, D d) WITHIN 10", 1),
            P("SEQ(A a, C c, E e) WITHIN 10", 2)]
    return merge(pats, mode="view")


def state_by_sig(plan, names):
    for s in plan.states:
        if "".join(t for t, _ in s.signature) == names:
            return s
    raise KeyError(names)


def test_shared_prefix_bitmaps():
    plan = fig_plan()
    assess(plan)
    assert state_by_sig(plan, "A").psd == 0b111
    assert state_by_sig(plan, "AC").psd == 0b011
    assert render_bitmap(state_by_sig(plan, "AC").psd, 3) == "[011]"


def test_single_pattern_all_ones():
    plan = compile_pattern(P("SEQ(A a, B b, C c) WITHIN 5"))
    assess(plan)
    assert all(s.psd == 0b1 for s in plan.states)


def test_prefix_oracle_random_plans():
    """``merge`` sets psd, before and without ``assess``: all bits on the
    start state, and a pattern's bit on exactly the states whose
    signature is a prefix of its own; in ``separate`` mode on one such
    state per positional step, and one bit per state.  ``assess`` leaves
    every psd as it is."""
    rng = np.random.default_rng(5)
    for t in range(30):
        n = int(rng.integers(2, 5))
        pats = [randgen.random_pattern(rng, "ABCD", pid) for pid in range(n)]
        for mode in ("view", "separate"):
            plan = merge(pats, mode=mode)
            assert plan.states[plan.start_id].psd == (1 << n) - 1
            rest = [s for s in plan.states if s.state_id != plan.start_id]
            for s in rest:
                owners = {p.id for p in pats
                          if s.psd & pattern_bit(p.id, n)}
                prefix_of = {p.id for p in pats if s.signature
                             == p.signature[:len(s.signature)]}
                if mode == "view":
                    assert owners == prefix_of, (t, s.signature)
                else:
                    assert len(owners) == 1 and owners <= prefix_of, t
            if mode == "separate":
                for p in pats:
                    assert len(p.positional_steps) == sum(
                        bool(s.psd & pattern_bit(p.id, n)) for s in rest)
            merged = [s.psd for s in plan.states]
            assess(plan)
            assert [s.psd for s in plan.states] == merged


def test_assess_is_deterministic():
    plan = fig_plan()
    assess(plan)
    first = [s.psd for s in plan.states]
    assess(plan)
    assert [s.psd for s in plan.states] == first


def el(tag, seq):
    return DataElement(tag, seq, float(seq), {"x": 1.0, "ID": 1.0})


def test_lookup_returns_shared_buffer():
    plan = fig_plan()
    index = assess(plan)
    eng = Engine(plan)
    eng.step(el("A", 0))
    got = index.clusters[0b111]
    assert len(got) == 1 and got[0].state_id == state_by_sig(plan, "A").state_id


def test_lookup_absent_bitmap_is_empty():
    plan = fig_plan()
    index = assess(plan)
    assert 0b101 not in index.clusters


def test_clusters_partition_live_records():
    rng = np.random.default_rng(9)
    plan = fig_plan()
    index = assess(plan)
    eng = Engine(plan)
    stream = randgen.random_stream(rng, 100, "ABCDE")
    for d in stream:
        eng.expire(d.seq_index, d.timestamp)
        eng.step(d)
        if rng.random() < 0.1:  # random discard, mimicking the selector
            live = list(plan.live_records())
            if live:
                plan.discard(live[int(rng.integers(0, len(live)))])
    live = {id(r) for r in plan.live_records()}
    seen = []
    for b, members in index.clusters.items():
        for r in members:
            assert plan.states[r.state_id].psd == b
            seen.append(id(r))
    assert sorted(seen) == sorted(live)   # disjoint cover, no duplicates


def test_separate_mode_single_bit_clusters():
    pats = [P("SEQ(A a, B b) WITHIN 10", 0), P("SEQ(A a, B b) WITHIN 10", 1)]
    plan = merge(pats, mode="separate")
    assess(plan)
    for s in plan.states:
        if s.state_id != plan.start_id:
            assert s.psd.bit_count() == 1
