import gc
import heapq
import linecache
import weakref

import numpy as np

import randgen
from matchshed import cost
from matchshed import workloads as wl
from matchshed.cost import Sketch, attr_key, estimate, sketch_update
from matchshed.engine import Engine, LatencyMonitor
from matchshed.model import DataElement, MatchRecord
from matchshed.parser import parse_pattern
from matchshed.plan import merge
from matchshed.psd import assess
from matchshed.selector import budgets, generate, select, trigger


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def el(tag, seq, ID=1.0):
    return DataElement(tag, seq, float(seq), {"ID": ID})


def rec(state_id, seq, bits, ID):
    e = el("A", seq, ID=ID)
    return MatchRecord(bits, (e,), state_id, seq, float(seq), seq)


def two_pattern_setup():
    """Plan with clusters [11] (shared SP(A)), [10] (AB), [01] (AC)."""
    plan = merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 100", 0),
                  P("SEQ(A a, C c) WHERE SAME [ID] WITHIN 100", 1)],
                 mode="view")
    index = assess(plan)
    return plan, index, Sketch(plan)


def entry(cn, pn):
    """A sketch entry holding the counters ``cn`` and ``pn``, its rank
    set as ``cost.sketch_update`` sets it."""
    e = cost.SketchEntry(len(cn))
    e.cn = [float(v) for v in cn]
    e.pn = [float(v) for v in pn]
    e.rank = -sum(e.cn)
    return e


def add_pm(plan, index, sketch, cluster_bits, seq, ID, pn, cn=None):
    state = next(s for s in plan.states
                 if s.psd == cluster_bits and s.state_id != plan.start_id)
    pm = rec(state.state_id, seq, cluster_bits, ID)
    plan.insert(pm)
    sketch.table[attr_key(sketch, pm)] = pm.entry = entry(cn or (0, 0), pn)
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
    b = budgets(index, mon, [10.0, 10.0])
    assert set(b) == {0}          # only the overloaded pattern has a budget
    assert b[0] == 3.0            # (10/20) * (1+2+3)


def test_budget_empty_when_no_pms():
    plan, index, sketch = two_pattern_setup()
    b = budgets(index, monitor_with([20.0, 20.0]), [10.0, 10.0])
    assert b == {0: 0.0, 1: 0.0}


def test_non_overloaded_cluster_untouched():
    plan, index, sketch = two_pattern_setup()
    safe = add_pm(plan, index, sketch, 0b10, 0, 1.0, pn=(100, 0))
    hot = add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 100))
    audit = select(index, 0b01, {1: 0.0})
    assert safe.alive and not hot.alive
    assert audit.kept == 1 and audit.discarded == 1


def test_higher_psd_cluster_drains_first():
    plan, index, sketch = two_pattern_setup()
    shared = add_pm(plan, index, sketch, 0b11, 0, 1.0, pn=(1, 1), cn=(1, 1))
    solo = add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 1), cn=(0, 9))
    # budget admits exactly one unit of P2 overhead; the shared cluster is
    # admitted first despite the solo PM's higher contribution
    audit = select(index, 0b01, {1: 1.0})
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
        select(index, b_ol, budget_map)
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
    first = select(index, 0b11, budget_map)
    second = select(index, 0b11, budget_map)
    assert second.discarded == 0
    assert second.kept == first.kept


def test_audit_row_shape():
    plan, index, sketch = two_pattern_setup()
    add_pm(plan, index, sketch, 0b01, 1, 2.0, pn=(0, 2))
    audit = select(index, 0b01, {1: 5.0}, now_ts=7.0)
    row = audit.csv_row(2)
    assert row[0] == "7.0" and row[1] == "[01]"
    assert row[4] == "P2:2/5"


def test_ties_break_in_creation_order_across_states():
    """PMs of one cluster tied on contribution and first element rank in
    creation order across its states: (0, 3) is the last created, though
    its state is shallower than that of (0, 1, 2)."""
    plan = merge([P("SEQ(A a, B b, C c, D d) WHERE SAME [ID] WITHIN 100")],
                 mode="view")
    index = assess(plan)
    sketch = Sketch(plan)
    eng = Engine(plan)
    for seq, tag in enumerate("ABCB"):
        eng.step(el(tag, seq))
    pms = list(plan.live_records())
    for pm in pms:
        pm.entry = sketch.table[attr_key(sketch, pm)] = cost.SketchEntry(1)
        pm.entry.pn = [1.0]
    audit = select(index, 0b1, {0: 3.0})
    assert sorted(pm.seq_tuple() for pm in pms if pm.alive) == \
        [(0,), (0, 1), (0, 1, 2)]
    assert [pm.seq_tuple() for pm in pms if not pm.alive] == [(0, 3)]
    assert (audit.kept, audit.discarded) == (3, 1)


# ------------------------------------------------ heap-based reference

def ref_budgets(index, sketch, monitor, bounds):
    """Budgets from one fresh estimate per PM and a bit loop per pattern."""
    n = monitor.n
    totals = [0.0] * n
    for members in index.clusters.values():
        for pm in members:
            v = estimate(sketch, pm)
            for i in range(n):
                if pm.pattern_bits & (1 << (n - i - 1)):
                    totals[i] += v.overhead[i]
    return {i: (bounds[i] / monitor.latency_ms[i]) * totals[i]
            for i in range(n)
            if monitor.latency_ms[i] >= bounds[i] and monitor.latency_ms[i] > 0}


def ref_select(index, b_ol, budget_map, sketch):
    """Selection draining each overloaded cluster from a max-heap keyed
    by contribution sum, ties to the older first element, then the older
    last element, then cluster position."""
    n = index.n
    kept = discarded = 0
    spend = {i: 0.0 for i in budget_map}
    live = [(b, m) for b, m in index.clusters.items() if m]
    overloaded = [(b, m) for b, m in live if b & b_ol]
    for b, members in live:
        if not b & b_ol:
            kept += len(members)
    overloaded.sort(key=lambda bm: -bm[0])
    for _, members in overloaded:
        heap = []
        for j, pm in enumerate(members):
            s = sum(estimate(sketch, pm).contribution)
            heapq.heappush(heap, (-s, pm.first_ts, pm.first_seq,
                                  pm.last_seq, j, pm))
        while heap:
            pm = heapq.heappop(heap)[-1]
            if not pm.alive:
                continue
            v = estimate(sketch, pm)
            ok = True
            for i in spend:
                if pm.pattern_bits & (1 << (n - i - 1)):
                    if spend[i] + v.overhead[i] > budget_map[i] + 1e-12:
                        ok = False
                        break
            if ok:
                for i in spend:
                    if pm.pattern_bits & (1 << (n - i - 1)):
                        spend[i] += v.overhead[i]
                kept += 1
            else:
                index.plan.discard(pm)
                discarded += 1
    return kept, discarded, spend


def random_scene(seed):
    """Three patterns over clusters [111] A, [110] AB, [010] ABC, [001] AD.
    PMs draw their first element from a small pool and pairs of them
    share a last one, so PMs of one state share keys and tie on
    contribution and on first and last element; Kleene tails of random
    length vary the record length within a key.  Some keys have no
    sketch entry and some members are dead before selection."""
    rng = np.random.default_rng(seed)
    plan = merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 100", 0),
                  P("SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 100", 1),
                  P("SEQ(A a, D d) WHERE SAME [ID] WITHIN 100", 2)],
                 mode="view")
    index = assess(plan)
    sketch = Sketch(plan)
    states = [s for s in plan.states if s.state_id != plan.start_id]
    firsts = [el("A", j, ID=float(rng.integers(0, 3))) for j in range(5)]
    pms = []
    for j in range(int(rng.integers(1, 40))):
        state = states[int(rng.integers(0, len(states)))]
        bits = state.psd & int(rng.integers(1, 8)) or state.psd
        first = firsts[int(rng.integers(0, len(firsts)))]
        last = 10 + j // 2
        tail = tuple(el("B", last) for _ in range(int(rng.integers(0, 4))))
        pm = MatchRecord(bits, (first, tail) if tail else (first,),
                         state.state_id, first.seq_index, first.timestamp,
                         last)
        plan.insert(pm)
        pms.append(pm)
    for pm in pms:
        k = attr_key(sketch, pm)
        if k not in sketch.table and rng.random() < 0.8:
            sketch.table[k] = entry(
                [float(rng.integers(0, 3)) * 0.3 for _ in range(3)],
                [float(rng.integers(0, 6)) * 0.7 for _ in range(3)])
        pm.entry = sketch.table.get(k)
    for pm in pms:
        if rng.random() < 0.15:
            plan.discard(pm)
    monitor = monitor_with([float(rng.uniform(0, 20)) for _ in range(3)])
    return plan, index, sketch, pms, monitor


def hexes(d):
    return {i: float(v).hex() for i, v in d.items()}


def test_select_and_budgets_equal_heap_reference():
    bounds = [10.0, 10.0, 10.0]
    reductions = 0
    for seed in range(150):
        _, idx_new, sk_new, pms_new, mon = random_scene(seed)
        _, idx_ref, sk_ref, pms_ref, _ = random_scene(seed)
        b_ol = trigger(mon, bounds)
        b_new = budgets(idx_new, mon, bounds)
        b_ref = ref_budgets(idx_ref, sk_ref, mon, bounds)
        assert hexes(b_new) == hexes(b_ref), seed
        assert b_new.walk[1] == b_ol  # positive bounds: same overload
        # the first reduction drains the walk budgets made; a second
        # with tighter budgets walks afresh and meets the first one's
        # tombstones in the state buffers
        for scale in (1.0, 0.5):
            budget_map = (b_new if scale == 1.0 else
                          {i: b * scale for i, b in b_new.items()})
            audit = select(idx_new, b_ol, budget_map)
            kept, discarded, spend = ref_select(idx_ref, b_ol, budget_map,
                                                sk_ref)
            assert [p.alive for p in pms_new] == \
                [p.alive for p in pms_ref], (seed, scale)
            assert (audit.kept, audit.discarded) == (kept, discarded)
            assert hexes(audit.spend) == hexes(spend)
            assert hexes(audit.budget) == hexes(budget_map)
            reductions += discarded > 0
    assert reductions > 100  # the scenes do shed


def test_reused_or_stale_walk_selects_as_a_fresh_walk():
    """``select`` on a ``budgets`` result after PMs were discarded since,
    a second ``select`` on the same result, and one for another b_OL each
    give what a walk made at that moment (a plain dict) gives."""
    bounds = [10.0, 10.0, 10.0]
    for seed in range(80):
        scenes = [random_scene(seed) for _ in range(2)]
        b_ol = trigger(scenes[0][4], bounds)
        other = 0b111 if b_ol != 0b111 else 0b100
        results = []
        for fresh, (plan, index, sketch, pms, mon) in zip((False, True),
                                                           scenes):
            b = budgets(index, mon, bounds)
            b_other = budgets(index, mon, bounds)
            for pm in pms[::4]:
                plan.discard(pm)
            out = []
            for ol, bm in ((b_ol, b), (b_ol, b), (other, b_other)):
                a = select(index, ol, dict(bm) if fresh else bm)
                out.append(([p.alive for p in pms], a.kept, a.discarded,
                            hexes(a.spend), hexes(a.budget)))
            results.append(out)
        assert results[0] == results[1], seed


# ---------------------------------------- generated reduction kernel

def test_kernel_equals_reference_on_zero_negative_and_plain_budgets():
    """Zero and negative budgets, under which even a PM without a sketch
    entry (overhead 0) can be shed, a plain-dict map that also names
    patterns outside b_OL and one that leaves patterns of b_OL out
    select as the heap reference does."""
    bounds = [10.0] * 3
    shed_without_entry = 0
    for seed in range(60):
        b_ol = trigger(random_scene(seed)[4], bounds) or 0b010
        named = [i for i in range(3) if b_ol & (0b100 >> i)]
        rng = np.random.default_rng(seed)
        maps = ({i: 0.0 for i in named}, {i: -1.0 for i in named},
                {i: float(rng.integers(-1, 8)) for i in range(3)},
                {named[-1]: 0.0})
        for budget_map in maps:
            _, idx_new, sk_new, pms_new, _ = random_scene(seed)
            _, idx_ref, sk_ref, pms_ref, _ = random_scene(seed)
            bare = [p for p in pms_new
                    if p.alive and attr_key(sk_new, p) not in sk_new.table]
            audit = select(idx_new, b_ol, budget_map)
            kept, discarded, spend = ref_select(idx_ref, b_ol, budget_map,
                                                sk_ref)
            assert [p.alive for p in pms_new] == \
                [p.alive for p in pms_ref], (seed, budget_map)
            assert (audit.kept, audit.discarded) == (kept, discarded)
            assert hexes(audit.spend) == hexes(spend)
            shed_without_entry += sum(not p.alive for p in bare)
    assert shed_without_entry > 0


def engine_scene(seed):
    """A plan of 1 to 6 random patterns (``randgen``) after a random
    stream: the engine's records, most credited to the sketch (they hold
    their entry), some never (without an entry unless a descendant was
    credited), with counters decayed along the way; random latencies."""
    rng = np.random.default_rng(seed)
    n = 1 + seed % 6
    plan = merge([randgen.random_pattern(rng, "ABC", pid)
                  for pid in range(n)])
    sketch = Sketch(plan)
    eng = Engine(plan)
    for d in randgen.random_stream(rng, 80, "ABC"):
        eng.expire(d.seq_index, d.timestamp)
        res = eng.step(d)
        cms = {}
        for pid, r in res.complete:
            cms.setdefault(id(r), []).append(pid)
        for r in res.new_pms:
            if rng.random() < 0.8:
                sketch_update(sketch, r, cm_pids=cms.get(id(r), ()))
        if d.seq_index % 30 == 29:
            cost.decay(sketch)
    monitor = monitor_with([float(rng.uniform(0, 20)) for _ in range(n)])
    return plan, assess(plan), sketch, monitor


def test_kernel_equals_reference_on_random_plans():
    shed = 0
    for seed in range(90):
        plan, index, sketch, mon = engine_scene(seed)
        plan_ref, idx_ref, sk_ref, _ = engine_scene(seed)
        bounds = [10.0] * plan.n
        b_ol = trigger(mon, bounds)
        if not b_ol:
            continue
        b = budgets(index, mon, bounds)
        assert hexes(b) == hexes(ref_budgets(idx_ref, sk_ref, mon,
                                             bounds)), seed
        for scale in (1.0, 0.5):
            budget_map = (b if scale == 1.0 else
                          {i: v * scale for i, v in b.items()})
            audit = select(index, b_ol, budget_map)
            kept, discarded, spend = ref_select(idx_ref, b_ol, budget_map,
                                                sk_ref)
            # the same PMs survive, in the same order
            for state, twin in zip(plan.states, plan_ref.states):
                assert [(r.pattern_bits, r.seq_tuple())
                        for r in state.buffer] == \
                    [(r.pattern_bits, r.seq_tuple()) for r in twin.buffer]
            assert (audit.kept, audit.discarded) == (kept, discarded)
            assert hexes(audit.spend) == hexes(spend)
            shed += discarded
    assert shed > 100


def test_credited_records_hold_their_entry():
    """After an engine run that credits every new record, across decays,
    each record holds the entry its key names."""
    credited = 0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        plan = merge([randgen.random_pattern(rng, "ABC", pid)
                      for pid in range(1 + seed % 4)])
        sketch = Sketch(plan)
        eng = Engine(plan)
        records = []
        for d in randgen.random_stream(rng, 120, "ABC"):
            eng.expire(d.seq_index, d.timestamp)
            res = eng.step(d)
            cms = {}
            for pid, r in res.complete:
                cms.setdefault(id(r), []).append(pid)
            for r in res.new_pms:
                sketch_update(sketch, r, cm_pids=cms.get(id(r), ()))
            records += res.new_pms
            if d.seq_index % 40 == 39:
                cost.decay(sketch)
        for r in records:
            assert r.entry is sketch.table[attr_key(sketch, r)]
        credited += len(records)
    assert credited > 1000


def test_generated_reduction_source():
    """Only the cluster serving two patterns reads pattern bits, once in
    the walk and once in the drain; the walk reads no sketch, only the
    entries the PMs hold, and no per-record cost function."""
    _, index, _ = two_pattern_setup()
    source = generate(index)[0]
    assert "THETA" not in source
    assert source.count("bits = pm.pattern_bits") == 2
    assert source.startswith("def walk(b_ol, flags):\n")
    assert not any(name in source for name in ("table", "tag", "attr_key"))


def test_deleted_index_leaves_no_cycle():
    """A cluster index with a generated kernel goes by reference counting
    once deleted, its kernel functions and their source in ``linecache``
    with it."""
    plan = merge([P(wl.templates(window=200)[k], i)
                  for i, k in enumerate(("P1", "P2", "P5", "P6"))])
    index = assess(plan)
    sketch = Sketch(plan)
    eng = Engine(plan)
    for d in wl.gen_ds2(1000, 3):
        eng.expire(d.seq_index, d.timestamp)
        for r in eng.step(d).new_pms:
            sketch_update(sketch, r)
    mon = monitor_with([1.0] * 4)
    select(index, 0b1111, budgets(index, mon, [0.5] * 4))
    kernels = [weakref.ref(f) for f in index.kernel]
    assert len(kernels) == 3
    files = [k for k in linecache.cache
             if k.startswith("<matchshed reduction") and
             k.endswith(f" {id(index):#x}>")]
    assert len(files) == 1
    gc.collect()
    gc.disable()
    try:
        del index
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert all(k() is None for k in kernels)
    assert not any(f in linecache.cache for f in files)
