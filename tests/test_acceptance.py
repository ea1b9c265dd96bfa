"""End-to-end acceptance checks for the whole package.

Each test covers one numbered criterion and reports a single PASS/FAIL
verdict line (collected into the terminal summary by conftest).  The
heavier scenario tests (recall dominance, drift recovery) run the full
pipeline on DS1 at reduced scale over several seeds, so this module
takes a few minutes; everything is seeded and deterministic.
"""

import os
import time

import numpy as np
import pytest

import conftest
import oracle
import randgen
from matchshed import workloads as wl
from matchshed.cost import Sketch, attr_key, estimate, sketch_update
from matchshed.engine import Engine, golden_run
from matchshed.model import ConsumptionPolicy, SelectionPolicy, pattern_bit
from matchshed.parser import parse_pattern
from matchshed.plan import compile_pattern, merge
from matchshed.psd import assess
from matchshed.runner import RunConfig, recall, rolling_recall, run
from matchshed.selector import select
from test_selector import add_pm, two_pattern_setup

SELECTIONS = [SelectionPolicy.STRICT_CONTIGUITY,
              SelectionPolicy.SKIP_TILL_NEXT,
              SelectionPolicy.SKIP_TILL_ANY]


def verdict(num, label, checks, detail=""):
    """Record one acceptance line and assert every sub-check."""
    ok = all(checks.values())
    line = f"ACCEPTANCE {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    if not ok:
        line += "  failed: " + "; ".join(k for k, v in checks.items()
                                         if not v)
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def engine_cms(stream, pattern, sel, cons):
    plan = compile_pattern(pattern)
    return {r.seq_tuple() for r in golden_run(stream, plan, sel, cons)[0]}


def oracle_cms(stream, pattern, sel):
    if sel is SelectionPolicy.SKIP_TILL_ANY:
        return oracle.enumerate_any(stream, pattern)
    if sel is SelectionPolicy.STRICT_CONTIGUITY:
        return oracle.enumerate_any(stream, pattern, strict=True)
    return oracle.greedy_next(stream, pattern)


@pytest.fixture(scope="module")
def policy_matrix():
    """1000 random (stream, pattern) cases with engine and oracle CM sets
    for every selection x consumption combination."""
    t0 = time.perf_counter()
    cases = []
    for pat, stream in randgen.acceptance_cases():
        got, want = {}, {}
        for sel in SELECTIONS:
            want[sel, "reuse"] = oracle_cms(stream, pat, sel)
            want[sel, "consume"] = oracle.consume_filter(
                stream, pat, want[sel, "reuse"])
            for cons in (ConsumptionPolicy.REUSE, ConsumptionPolicy.CONSUME):
                got[sel, cons.value] = engine_cms(stream, pat, sel, cons)
        cases.append((got, want))
    return cases, time.perf_counter() - t0


def test_acceptance_1_golden_correctness(policy_matrix):
    cases, elapsed = policy_matrix
    mismatches = 0
    for got, want in cases:
        for key in want:
            if got[key] != want[key]:
                mismatches += 1
    verdict(1, "golden correctness vs brute-force oracle",
            {"all CM sets equal the oracle": mismatches == 0,
             "runtime under 2 min": elapsed < 120.0},
            detail=f"1000 streams x 6 policies, {elapsed:.0f}s")


def test_acceptance_2_psd_correctness():
    rng = np.random.default_rng(11)
    prefix_ok = partition_ok = True
    for _ in range(200):
        n = int(rng.integers(1, 9))
        pats = [randgen.random_pattern(rng, "ABCD", pid) for pid in range(n)]
        plan = merge(pats, mode="view")
        index = assess(plan)
        for s in plan.states:
            if s.state_id == plan.start_id:
                continue
            for p in pats:
                is_prefix = s.signature == p.signature[:len(s.signature)]
                bit = bool(s.psd & pattern_bit(p.id, n))
                prefix_ok &= bit == is_prefix
        eng = Engine(plan)
        for d in randgen.random_stream(rng, 50, "ABCD"):
            eng.expire(d.seq_index, d.timestamp)
            for r in eng.step(d).new_pms:
                index.insert(r)
            if rng.random() < 0.15:
                live = list(plan.live_records())
                if live:
                    plan.discard(live[int(rng.integers(0, len(live)))])
        live = sorted(id(r) for r in plan.live_records())
        seen = []
        for b, members in index.clusters.items():
            for r in members:
                partition_ok &= plan.states[r.state_id].psd == b
                seen.append(id(r))
        partition_ok &= sorted(seen) == live
    verdict(2, "sharing-degree bitmaps and cluster partition",
            {"every PSD bit matches the prefix oracle": prefix_ok,
             "clusters partition live PMs": partition_ok})


def lineage_agrees(plan, stream, n):
    """Replay a stream and compare sketch counters against counts
    recomputed from recorded parent lineage."""
    sk = Sketch(plan)
    eng = Engine(plan)
    want = {}

    def key_of(r):
        first = r.slots[0]
        e0 = first[0] if isinstance(first, tuple) else first
        return (r.state_id, e0.attrs["ID"])

    for d in stream:
        eng.expire(d.seq_index, d.timestamp)
        res = eng.step(d)
        cm_of = {}
        for pid, r in res.complete:
            cm_of.setdefault(id(r), []).append(pid)
        for r in res.new_pms:
            sketch_update(sk, r, cm_pids=cm_of.get(id(r), ()))
            node = r
            while node is not None:
                cn, pn = want.setdefault(key_of(node),
                                         ([0] * n, [0] * n))
                for i in range(n):
                    if r.pattern_bits & pattern_bit(i, n):
                        pn[i] += 1
                for pid in cm_of.get(id(r), ()):
                    cn[pid] += 1
                node = node.parent
    if len(sk.table) != len(want):
        return False
    for key, entry in sk.table.items():
        cn, pn = want[(key[0], key[1])]
        if entry.cn != [float(c) for c in cn]:
            return False
        if entry.pn != [float(p) for p in pn]:
            return False
    return True


def test_acceptance_3_cost_model_agreement():
    def P(text, pid):
        return parse_pattern(text, pattern_id=pid)

    def el(tag, seq, ID=1.0):
        from matchshed.model import DataElement
        return DataElement(tag, seq, float(seq), {"ID": ID, "x": 0.0})

    def rec(state_id, e, bits):
        from matchshed.model import MatchRecord
        return MatchRecord(bits, (e,), state_id, e.seq_index, e.timestamp,
                           e.seq_index)

    plan3 = merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 10", 0),
                   P("SEQ(A a, C c, D d) WHERE SAME [ID] WITHIN 10", 1),
                   P("SEQ(A a, C c, E e) WHERE SAME [ID] WITHIN 10", 2)],
                  mode="view")
    sk = Sketch(plan3)
    rho = rec(1, el("A", 0, ID=7.0), 0b111)
    for _ in range(3):
        sketch_update(sk, rec(1, el("A", 1, ID=7.0), 0b100),
                      generators=[rho])
    for j in range(5):
        sketch_update(sk, rec(3, el("A", 1, ID=7.0), 0b010),
                      cm_pids=[1] if j < 2 else (), generators=[rho])
    for j in range(4):
        sketch_update(sk, rec(4, el("A", 1, ID=7.0), 0b001),
                      cm_pids=[2] if j < 1 else (), generators=[rho])
    v = estimate(sk, rho)
    vectors_ok = (v.contribution == [0.0, 2.0, 1.0]
                  and v.overhead == [3.0, 5.0, 4.0])

    rng = np.random.default_rng(17)
    lineage_ok = True
    plans = [
        lambda: merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 8", 0),
                       P("SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8", 1)],
                      mode="view"),
        lambda: merge([P("SEQ(A a, C c) WHERE SAME [ID] WITHIN 12", 0),
                       P("SEQ(A a, C c, D d) WHERE SAME [ID] WITHIN 12", 1),
                       P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 12", 2)],
                      mode="view"),
    ]
    for trial in range(6):
        make = plans[trial % 2]
        plan = make()
        size = (200, 350, 500)[trial % 3]
        stream = randgen.random_stream(rng, size, "ABCD")
        lineage_ok &= lineage_agrees(plan, stream, plan.n)
    verdict(3, "sketch counters vs lineage oracle",
            {"worked contribution/overhead vectors": vectors_ok,
             "counters equal lineage counts on replays": lineage_ok})


def test_acceptance_4_selector_safety_maximality():
    rng = np.random.default_rng(23)
    safety_ok = maximality_ok = True
    for _ in range(500):
        plan, index, sketch = two_pattern_setup()
        pms = []
        for j in range(int(rng.integers(1, 13))):
            cl = (0b11, 0b10, 0b01)[rng.integers(0, 3)]
            pms.append(add_pm(plan, index, sketch, cl, j, float(j),
                              pn=(int(rng.integers(0, 5)),
                                  int(rng.integers(0, 5))),
                              cn=(int(rng.integers(0, 5)),
                                  int(rng.integers(0, 5)))))
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
        for i in budget_map:
            safety_ok &= spend[i] <= budget_map[i] + 1e-9
        for p in pms:
            if not p.alive:
                maximality_ok &= any(
                    p.pattern_bits & (0b10 >> i)
                    and spend[i] + before[id(p)].overhead[i]
                    > budget_map[i] + 1e-9
                    for i in budget_map)
    verdict(4, "selector budget safety and maximality",
            {"kept set never exceeds a budget": safety_ok,
             "every discard is infeasible post hoc": maximality_ok})


DS2_PATS = ["SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 60",
            "SEQ(A a, B b, D d) WHERE SAME [ID] WITHIN 60"]


def test_acceptance_5_no_overload_identity():
    stream = wl.gen_ds2(1500, 0)
    base = run(RunConfig(patterns=DS2_PATS, strategy="none", seed=1), stream)
    eased = run(RunConfig(patterns=DS2_PATS, strategy="guided", seed=1,
                          bounds=[1e9, 1e9]), stream)
    verdict(5, "no-overload identity",
            {"zero triggers": eased.triggers == 0,
             "identical match sets": eased.matches == base.matches,
             "identical match counts":
                 eased.counters["cms_emitted"]
                 == base.counters["cms_emitted"]})


def mean_recall(base, m):
    return float(np.mean([recall(base.matches[i], m.matches[i])
                          for i in range(m.n)]))


def test_acceptance_6_recall_dominance():
    t0 = time.perf_counter()
    pats = [wl.templates(window=500)[k] for k in ("P3", "P4")]
    got = {"guided": [], "random-state": [], "random-input": []}
    for seed in range(5):
        stream = wl.gen_ds1(100_000, seed)
        base = run(RunConfig(patterns=pats, strategy="none", seed=seed),
                   stream)
        bounds = [x / 2 for x in base.latency_mean]   # 2x overload
        for strat in got:
            m = run(RunConfig(patterns=pats, strategy=strat, seed=seed,
                              bounds=bounds, select_every=400,
                              epoch_len=250, compute_golden=False), stream)
            got[strat].append(mean_recall(base, m))
    g, rs, ri = (float(np.mean(got[s])) for s in
                 ("guided", "random-state", "random-input"))
    elapsed = time.perf_counter() - t0
    verdict(6, "recall dominance under 2x overload",
            {"guided beats random-state by 0.15": g >= rs + 0.15,
             "guided beats random-input by 0.15": g >= ri + 0.15,
             "guided recall floor 0.6 at 50% budget": g >= 0.6,
             "runtime under 10 min": elapsed < 600.0},
            detail=f"guided={g:.3f} random-state={rs:.3f} "
                   f"random-input={ri:.3f}, {elapsed:.0f}s")


def test_acceptance_7_drift_recovery():
    W, N, offset = 1000, 13000, 9000
    pats = [wl.templates(window=W)[k] for k in ("P3", "P4")]
    curves = []
    for seed in range(5):
        spec = wl.ds1_spec(N, seed, drifts=[
            wl.Drift(0, "v", 1e6, 3.5e6, type_tag="D"),
            wl.Drift(offset, "v", 1.0, 2e6, type_tag="D")])
        stream = wl.generate(spec)
        base = run(RunConfig(patterns=pats, strategy="none", seed=seed),
                   stream)
        m = run(RunConfig(patterns=pats, strategy="guided", seed=seed,
                          bounds=[x / 2 for x in base.latency_mean],
                          select_every=400, epoch_len=250,
                          compute_golden=False), stream)
        g = [(e, (i, k)) for i in range(2) for e, k in base.matches[i]]
        r = [(e, (i, k)) for i in range(2) for e, k in m.matches[i]]
        curves.append([np.nan if x is None else x
                       for x in rolling_recall(g, r, W, N)])
    mean = np.nanmean(np.array(curves), axis=0)
    pre = float(np.nanmean(mean[2:offset // W]))      # skip warmup windows
    post = mean[offset // W:offset // W + 2]          # two window lengths
    verdict(7, "recall recovery after concept drift",
            {"recall drops after the drift": float(min(post)) < pre,
             "back within 0.05 of pre-drift mean in 2 windows":
                 float(post[-1]) >= pre - 0.05},
            detail=f"pre={pre:.3f} post={post[0]:.3f},{post[1]:.3f}")


def test_acceptance_8_policy_ordering(policy_matrix):
    cases, _ = policy_matrix
    strict_next = next_any = consume_reuse = True
    for got, _ in cases:
        strict = got[SelectionPolicy.STRICT_CONTIGUITY, "reuse"]
        nxt = got[SelectionPolicy.SKIP_TILL_NEXT, "reuse"]
        any_ = got[SelectionPolicy.SKIP_TILL_ANY, "reuse"]
        strict_next &= strict <= nxt
        next_any &= nxt <= any_
        for sel in SELECTIONS:
            consume_reuse &= got[sel, "consume"] <= got[sel, "reuse"]
    verdict(8, "policy-ordering inclusions",
            {"strict within skip-till-next": strict_next,
             "skip-till-next within skip-till-any": next_any,
             "consume within reuse": consume_reuse})


def test_acceptance_9_determinism(tmp_path):
    data = [os.path.join(tmp_path, f"d{j}.csv") for j in range(2)]
    for p in data:
        wl.write_csv(wl.gen_ds1(2000, 42), p)
    stream = wl.gen_ds2(1500, 0)
    base = run(RunConfig(patterns=DS2_PATS, strategy="none", seed=1), stream)
    bounds = [max(x, 1e-9) / 2 for x in base.latency_mean]
    outs = []
    for sub in ("r1", "r2"):
        out = os.path.join(tmp_path, sub)
        run(RunConfig(patterns=DS2_PATS, strategy="guided", seed=1,
                      bounds=bounds, out_dir=out), stream)
        outs.append(out)
    same = open(data[0], "rb").read() == open(data[1], "rb").read()
    for nm in ("plan.txt", "sketch.csv", "matches.csv", "metrics.csv",
               "audit.csv"):
        a = open(os.path.join(outs[0], nm), "rb").read()
        b = open(os.path.join(outs[1], nm), "rb").read()
        same &= a == b
    verdict(9, "byte-identical outputs for same config and seed",
            {"generator and run artifacts identical": same})
