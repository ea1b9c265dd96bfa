"""Keyed state buffers: key attributes per state, SAME checks left out on
keyed edges, identical matches, and work units that still count a full
scan of each source state."""

import dataclasses

import numpy as np
import pytest

import oracle
from matchshed import psd, runner
from matchshed import workloads as wl
from matchshed.engine import Engine, golden_run
from matchshed.model import DataElement, SelectionPolicy
from matchshed.parser import parse_pattern
from matchshed.plan import PlanState, compile_pattern, merge
from matchshed.runner import RunConfig, run


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def stream_of(rng, size, alphabet):
    """Elements with two small-domain attributes, ID and G."""
    return [DataElement(alphabet[rng.integers(0, len(alphabet))], i,
                        float(i),
                        {"x": float(np.round(rng.uniform(0, 10), 3)),
                         "ID": float(rng.integers(1, 4)),
                         "G": float(rng.integers(1, 3))})
            for i in range(size)]


def keys_by_sig(plan):
    return {"".join(t for t, _ in s.signature): s.key_attrs
            for s in plan.states}


def oracle_keys(stream, pattern, sel):
    if sel is SelectionPolicy.SKIP_TILL_ANY:
        return oracle.enumerate_any(stream, pattern)
    if sel is SelectionPolicy.STRICT_CONTIGUITY:
        return oracle.enumerate_any(stream, pattern, strict=True)
    return oracle.greedy_next(stream, pattern)


def outputs_agree(texts, seed, alphabet="ABCDE", trials=15):
    """Each pattern's matches through the merged plan equal its solo plan
    and the oracle, under every selection policy."""
    pats = [P(t, i) for i, t in enumerate(texts)]
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        stream = stream_of(rng, 50, alphabet)
        for sel in SelectionPolicy:
            merged = golden_run(stream, merge(pats, mode="view"), sel)
            for pid, p in enumerate(pats):
                got = {r.seq_tuple() for r in merged[pid]}
                solo = golden_run(stream, compile_pattern(
                    dataclasses.replace(p, id=0)), sel)[0]
                assert got == {r.seq_tuple() for r in solo}, (sel, pid)
                assert got == oracle_keys(stream, p, sel), (sel, pid, trial)


def test_key_attrs_are_common_same_attrs():
    plan = merge([P("SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8", 0),
                  P("SEQ(A a, B b, D d) WITHIN 8", 1),
                  P("SEQ(A a, B b, E e) WHERE SAME [G] WITHIN 8", 2),
                  P("SEQ(A a, B b, C c, D d) WHERE SAME [ID] AND SAME [G] "
                    "WITHIN 8", 3)])
    assert keys_by_sig(plan) == {"": (), "A": (), "AB": (), "ABC": ("ID",),
                                 "ABD": (), "ABE": ("G",),
                                 "ABCD": ("G", "ID")}
    one = merge([P("SEQ(A a, B b) WHERE SAME [ID] AND SAME [G] WITHIN 8", 0),
                 P("SEQ(A a, C c) WHERE SAME [ID] WITHIN 8", 1)])
    assert keys_by_sig(one) == {"": (), "A": ("ID",), "AB": ("G", "ID"),
                                "AC": ("ID",)}


def test_keyed_edges_drop_only_proven_same_checks():
    plan = merge([P("SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8", 0),
                  P("SEQ(A a, D d) WHERE SAME [ID] AND SAME [G] WITHIN 8",
                    1)])
    st = {"".join(t for t, _ in s.signature): s.state_id
          for s in plan.states}
    n_checks = {(e.from_id, e.to_id): len(e.guards[min(e.guards)].checks)
                for e in plan.edges}
    assert n_checks[(st[""], st["A"])] >= 1       # the start is unkeyed
    assert n_checks[(st["A"], st["AB"])] == 0     # ID proven by the probe
    assert n_checks[(st["AB"], st["ABC"])] == 0
    assert n_checks[(st["A"], st["AD"])] == 1     # G still checked


@pytest.mark.parametrize("texts", [
    # one pattern without SAME: the shared prefix stays unkeyed
    ["SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8",
     "SEQ(A a, B b, D d) WHERE a.x < d.x WITHIN 8"],
    # different SAME attributes: the shared prefix stays unkeyed
    ["SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8",
     "SEQ(A a, B b, D d) WHERE SAME [G] WITHIN 8"],
    # a common attribute: keyed on ID, G checked past the fork
    ["SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 8",
     "SEQ(A a, B b, D d) WHERE SAME [ID] AND SAME [G] WITHIN 8",
     "SEQ(A a, B b) WITHIN 6"],
    # a leading Kleene step, unkeyed: SAME compares each element with
    # the first of the Kleene list
    ["SEQ(B+ b[], C c) WHERE SAME [G] WITHIN 8",
     "SEQ(B+ b[], D d) WHERE SAME [ID] AND SUM(b[].x) < d.x WITHIN 6 ms"],
], ids=["no-same", "other-attr", "common-attr", "leading-kleene"])
def test_merged_prefix_matches_solo_and_oracle(texts):
    outputs_agree(texts, seed=len(texts[1]))


def test_kleene_and_negation_edges_leave_keyed_states():
    texts = ["SEQ(A a, B+ b[], C c) WHERE SAME [ID] WITHIN 8",
             "SEQ(A a, B+ b[], D d) WHERE SAME [ID] AND SUM(b[].x) < d.x "
             "WITHIN 8",
             "SEQ(A a, !C c, D d) WHERE SAME [ID] WITHIN 8",
             "SEQ(A a, !B b, E e) WHERE SAME [ID] AND b.x > a.x WITHIN 8"]
    plan = merge([P(t, i) for i, t in enumerate(texts)])
    assert all(s.key_attrs == ("ID",) for s in plan.states[1:])
    loop = next(e for e in plan.edges if e.action == "kleene-extend")
    assert all(g.checks == () for g in loop.guards.values())
    outputs_agree(texts, seed=3)
    # a C of another ID in the gap does not block SEQ(A, !C, D)
    el = [DataElement(t, i, float(i), {"x": 1.0, "ID": v, "G": 1.0})
          for i, (t, v) in enumerate([("A", 1.0), ("C", 2.0), ("D", 1.0),
                                      ("C", 1.0), ("D", 1.0)])]
    got = golden_run(el, merge([P(texts[2])]))[0]
    assert [r.seq_tuple() for r in got] == [(0, 2)]


def scan_work(plan, d, alive, new_pms) -> dict:
    """Work units of a full scan: per edge the alive records of its
    source state (one for the start state), plus one per new record."""
    want = {}
    for edge in plan.edges_by_trigger.get(d.type_tag, ()):
        units = 1 if edge.from_id == plan.start_id else alive[edge.from_id]
        if units:
            want[edge.from_id] = want.get(edge.from_id, 0) + units
    for rec in new_pms:
        want[rec.state_id] = want.get(rec.state_id, 0) + 1
    return want


@pytest.mark.parametrize("sel,cons", [("skip-any", "reuse"),
                                      ("skip-next", "consume")])
def test_work_units_count_every_alive_record(monkeypatch, sel, cons):
    step = Engine.step
    checked = []

    def checked_step(eng, d):
        alive = {s.state_id: sum(1 for r in s.buffer if r.alive)
                 for s in eng.plan.states}
        assert alive == {s.state_id: s.live for s in eng.plan.states}
        res = step(eng, d)
        assert res.work == scan_work(eng.plan, d, alive, res.new_pms)
        checked.append(res)
        return res

    monkeypatch.setattr(Engine, "step", checked_step)
    stream = wl.gen_ds2(1200, 4)
    texts = [wl.templates(window=60)[k] for k in ("P1", "P2", "P5", "P6")]
    base = dict(patterns=texts, selection=sel, consumption=cons, seed=2)
    calib = run(RunConfig(**base), stream)
    bounds = [x / 2 for x in calib.latency_mean]
    for strategy in ("guided", "random-state", "random-input"):
        m = run(RunConfig(**base, strategy=strategy, bounds=bounds,
                          compute_golden=False), stream)
        assert m.triggers > 0 and m.accounting_closes()
    assert len(checked) > 3 * len(stream)


def test_cluster_index_stays_within_twice_live(monkeypatch):
    """After every expiry each cluster holds at most twice its live
    members plus each state's slack, and ``lookup`` yields exactly its
    live members, in a run where selection never reads the index."""
    indexes, checked = [], []
    assess, expire = psd.assess, Engine.expire

    def keep(plan, *args):
        indexes.append(assess(plan, *args))
        return indexes[-1]

    def checked_expire(eng, now_seq, now_ts):
        evicted = expire(eng, now_seq, now_ts)
        (index,) = indexes
        for b, members in index.clusters.items():
            states = index.states[b]
            live = sum(s.live for s in states)
            assert len(members) <= 2 * live + PlanState.SLACK * len(states)
            assert index.lookup(b) == [r for r in members if r.alive]
            assert len(index.lookup(b)) == live
        checked.append(now_seq)
        return evicted

    monkeypatch.setattr(runner.psd, "assess", keep)
    monkeypatch.setattr(Engine, "expire", checked_expire)
    texts = [wl.templates(window=500)[k] for k in ("P3", "P4")]
    # guided keeps the cluster index; bounds this loose never select
    m = run(RunConfig(patterns=texts, strategy="guided", bounds=[1e9, 1e9],
                      compute_golden=False), wl.gen_ds1(6000, 1))
    assert m.counters["pms_created"] > 1000 and len(checked) > 10
