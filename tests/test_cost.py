import os

import numpy as np

import randgen
from matchshed import cost
from matchshed.cost import Sketch, attr_key, estimate, sketch_update
from matchshed.engine import Engine
from matchshed.model import DataElement, MatchRecord
from matchshed.parser import parse_pattern
from matchshed.plan import compile_pattern, merge


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def el(tag, seq, ID=1.0, x=0.0):
    return DataElement(tag, seq, float(seq), {"ID": ID, "x": x})


def rec(state_id, elems, bits=0b1, parent=None):
    first, last = elems[0], elems[-1]
    return MatchRecord(bits, tuple(elems), state_id, first.seq_index,
                       first.timestamp, last.seq_index, parent=parent)


def shared_plan():
    pats = [P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 10", 0),
            P("SEQ(A a, C c, D d) WHERE SAME [ID] WITHIN 10", 1),
            P("SEQ(A a, C c, E e) WHERE SAME [ID] WITHIN 10", 2)]
    return merge(pats, mode="view")


def test_attr_key_groups_by_state_and_partition_value():
    sk = Sketch(shared_plan())
    a = rec(1, [el("A", 0, ID=7.0, x=1.0)])
    b = rec(1, [el("A", 5, ID=7.0, x=9.0)])  # differs only in x
    c = rec(1, [el("A", 5, ID=8.0)])
    d = rec(2, [el("A", 5, ID=7.0)])
    assert attr_key(sk, a) == attr_key(sk, b)
    assert attr_key(sk, a) != attr_key(sk, c)
    assert attr_key(sk, a) != attr_key(sk, d)
    assert attr_key(sk, a) == attr_key(sk, a)  # stable


def test_first_pm_counts_itself():
    sk = Sketch(shared_plan())
    pm = rec(1, [el("A", 0)], bits=0b100)
    sketch_update(sk, pm)
    entry = sk.table[attr_key(sk, pm)]
    assert entry.pn == [1.0, 0.0, 0.0]
    assert entry.cn == [0.0, 0.0, 0.0]


def test_worked_vectors_from_generation_history():
    """A shared first-step PM that generated three/five/four PMs and
    zero/two/one CMs for the three patterns."""
    plan = shared_plan()
    sk = Sketch(plan)
    rho = rec(1, [el("A", 0, ID=7.0)], bits=0b111)
    for _ in range(3):
        sketch_update(sk, rec(1, [el("A", 1, ID=7.0)], bits=0b100),
                      generators=[rho])
    for j in range(5):
        sketch_update(sk, rec(3, [el("A", 1, ID=7.0)], bits=0b010),
                      cm_pids=[1] if j < 2 else (), generators=[rho])
    for j in range(4):
        sketch_update(sk, rec(4, [el("A", 1, ID=7.0)], bits=0b001),
                      cm_pids=[2] if j < 1 else (), generators=[rho])
    v = estimate(sk, rho)
    assert v.contribution == [0.0, 2.0, 1.0]
    assert v.overhead == [3.0, 5.0, 4.0]


def test_unseen_key_is_zero():
    sk = Sketch(shared_plan())
    v = estimate(sk, rec(1, [el("A", 0)]))
    assert v.contribution == [0.0, 0.0, 0.0]
    assert v.overhead == [0.0, 0.0, 0.0]


def test_decay_halves_counters():
    sk = Sketch(shared_plan())
    pm = rec(1, [el("A", 0)], bits=0b100)
    sketch_update(sk, pm, cm_pids=[0])
    cost.decay(sk, 0.5)
    e = sk.table[attr_key(sk, pm)]
    assert e.pn == [0.5, 0.0, 0.0]
    assert e.cn == [0.5, 0.0, 0.0]


def test_lineage_counts_match_oracle():
    """Replay a stream; sketch counters must equal counts recomputed from
    the recorded generation events."""
    rng = np.random.default_rng(17)
    plan = merge([P("SEQ(A a, B b) WHERE SAME [ID] WITHIN 8", 0),
                  P("SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8", 1)],
                 mode="view")
    sk = Sketch(plan)
    eng = Engine(plan)
    stream = randgen.random_stream(rng, 120, "ABCD")

    def oracle_key(r):
        first = r.slots[0]
        e0 = first[0] if isinstance(first, tuple) else first
        return (r.state_id, e0.attrs["ID"])

    want = {}
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
                k = oracle_key(node)
                cn, pn = want.setdefault(k, ([0, 0], [0, 0]))
                for i in range(2):
                    if r.pattern_bits & (0b10 >> i):
                        pn[i] += 1
                for pid in cm_of.get(id(r), ()):
                    cn[pid] += 1
                node = node.parent
    assert len(sk.table) == len(want)
    for key, entry in sk.table.items():
        cn, pn = want[(key[0], key[1])]
        assert entry.cn == [float(c) for c in cn]
        assert entry.pn == [float(p) for p in pn]


def test_dump_csv(tmp_path):
    sk = Sketch(shared_plan())
    pm = rec(1, [el("A", 0, ID=7.0)], bits=0b110)
    sketch_update(sk, pm, cm_pids=[0])
    path = os.path.join(tmp_path, "sketch.csv")
    cost.dump_csv(sk, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "key,state_id,cn_1,cn_2,cn_3,pn_1,pn_2,pn_3"
    assert len(lines) == 2 and lines[1].startswith("1|7.0,1,")


def ref_sketch_update(sk, new_match, cm_pids=()):
    """Chain walk keying every generator and testing each pattern bit."""
    n = sk.n
    rho = new_match
    while rho is not None:
        k = attr_key(sk, rho)
        entry = sk.table.get(k)
        if entry is None:
            entry = sk.table[k] = cost.SketchEntry(n)
        for i in range(n):
            if new_match.pattern_bits & (1 << (n - i - 1)):
                entry.pn[i] += 1
        for i in cm_pids:
            entry.cn[i] += 1
        rho = rho.parent


def test_sketch_update_equals_chain_walk_reference():
    """Random chains with interleaved decays leave every counter
    bit-equal to the reference walk, and each entry's rank bit-equal to
    ``-sum(cn)``."""
    rng = np.random.default_rng(41)
    plan = shared_plan()
    for _ in range(30):
        sk_new, sk_ref = Sketch(plan), Sketch(plan)
        recs = []
        for j in range(200):
            parent = (recs[int(rng.integers(0, len(recs)))]
                      if recs and rng.random() < 0.8 else None)
            first = (parent.slots[0] if parent is not None
                     else el("A", j, ID=float(rng.integers(0, 4))))
            r = rec(int(rng.integers(1, 5)), [first, el("B", 1000 + j)],
                    bits=int(rng.integers(1, 8)), parent=parent)
            recs.append(r)
            cm = tuple(int(i) for i in rng.choice(3, int(rng.integers(0, 3)),
                                                  replace=False))
            sketch_update(sk_new, r, cm_pids=cm)
            ref_sketch_update(sk_ref, r, cm_pids=cm)
            if rng.random() < 0.05:
                factor = float(rng.choice([0.5, 0.3]))
                cost.decay(sk_new, factor)
                cost.decay(sk_ref, factor)
        assert sk_new.table.keys() == sk_ref.table.keys()
        for k, e in sk_new.table.items():
            want = sk_ref.table[k]
            assert [c.hex() for c in e.cn] == [c.hex() for c in want.cn]
            assert [p.hex() for p in e.pn] == [p.hex() for p in want.pn]
            assert e.rank.hex() == (-sum(want.cn)).hex()
