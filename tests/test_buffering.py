"""Generated sweeps buffer their own children: after every step each
state's buffer, buckets, live count and deadline slots agree, on the
inlined path and through ``ExecutionPlan.insert``; a buffer holds
exactly its state's alive records, whatever removed the others; every
record a sweep builds in place holds every slot as the constructor
would; and the match keys a step returns are the keys
``runner.match_key`` rebuilds."""

import dataclasses
import re

import numpy as np
import pytest

import oracle
import randgen
from matchshed import cost, psd, runner, selector
from matchshed import workloads as wl
from matchshed.engine import Engine, LatencyMonitor
from matchshed.model import (ConsumptionPolicy, MatchRecord,
                             SelectionPolicy, StepKind, Window, WindowKind)
from matchshed.parser import format_pattern, parse_pattern
from matchshed.plan import merge
from matchshed.runner import RunConfig

POLICIES = [(s, c) for s in SelectionPolicy for c in ConsumptionPolicy]


def first_element(rec):
    first = rec.slots[0]
    return first[0] if type(first) is tuple else first


def check_buffers(plan, rank):
    """The buffering invariants; ``rank`` maps ``id(record)`` to its
    position in creation order."""
    for s in plan.states:
        order = [rank[id(r)] for r in s.buffer]
        assert order == sorted(order), s
        held = 0
        for key, bucket in s.buckets.items():
            want = [r for r in s.buffer if s.key_of(first_element(r)) == key]
            assert [id(r) for r in bucket] == [id(r) for r in want], (s, key)
            held += len(bucket)
        assert held == len(s.buffer), s
        assert len(s.buffer) == sum(r.alive for r in s.buffer), s
    for q in plan.deadlines:
        assert sorted(q.starts) == sorted(q.slots)
        slotted = {(start, id(r)) for start, recs in q.slots.items()
                   for r in recs}
        for r in plan.live_records():
            if r.pattern_bits & q.mask:
                start = r.first_seq if q.by_count else r.first_ts
                assert (start, id(r)) in slotted, (q.by_count, q.size, r)


def drive(plan, stream, sel, cons, expire_every=3):
    """Step ``stream`` through a fresh engine, checking the invariants
    after every expiry and every step; returns each pattern's matches."""
    eng = Engine(plan, sel, cons)
    rank, created, returned = {}, [], []
    out = {p.id: [] for p in plan.patterns}
    for i, d in enumerate(stream):
        if i % expire_every == 0:
            eng.expire(d.seq_index, d.timestamp)
            check_buffers(plan, rank)
        res = eng.step(d)
        returned.append((res.new_pms, list(res.new_pms)))
        for r in res.new_pms:
            rank[id(r)] = len(created)
            created.append(r)   # keeps every id distinct
        check_buffers(plan, rank)
        for pid, r in res.complete:
            out[pid].append(r.seq_tuple())
    # no buffer shares a list with what a step returned
    assert all(now == then for now, then in returned)
    return out


def uneven_times(rng, stream):
    """``stream`` with non-decreasing timestamps that advance by 0 to 2."""
    ts = 0.0
    for d in stream:
        ts += float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        d.timestamp = ts
    return stream


@pytest.mark.parametrize("sel, cons", POLICIES,
                         ids=[f"{s.value}-{c.value}" for s, c in POLICIES])
def test_buffers_buckets_live_and_deadlines_agree(sel, cons):
    """Random plans of one to three patterns, count and time windows
    mixed, in both materialization modes."""
    rng = np.random.default_rng(list(SelectionPolicy).index(sel) * 2
                                + list(ConsumptionPolicy).index(cons))
    for trial in range(12):
        pats = []
        for pid in range(int(rng.integers(1, 4))):
            p = randgen.random_pattern(rng, "ABCD", pid)
            if rng.random() < 0.5:
                p = dataclasses.replace(
                    p, window=Window(WindowKind.TIME, p.window.size))
            pats.append(p)
        stream = uneven_times(rng, randgen.random_stream(rng, 40, "ABCD"))
        plan = merge(pats, mode="view" if trial % 3 else "separate")
        drive(plan, stream, sel, cons, expire_every=int(rng.integers(1, 5)))


GENERIC = ["SEQ(A a, B+ b[], C c) WITHIN 10",
           "SEQ(A a, B+ b[], D d) WHERE SAME [ID] WITHIN {}"]


@pytest.mark.parametrize("p2_window", ["10", "8 ms"])
def test_child_keyed_unlike_its_parent_goes_through_insert(p2_window):
    """P2 is keyed by ID after an unkeyed A-B+ prefix it shares with an
    un-SAMEd P1, so its D edge leaves an unkeyed state for a keyed one
    and the sweep hands those children to ``ExecutionPlan.insert``."""
    pats = [parse_pattern(GENERIC[0], pattern_id=0),
            parse_pattern(GENERIC[1].format(p2_window), pattern_id=1)]
    plan = merge(pats)
    keys = {"".join(t for t, _ in s.signature): s.key_attrs
            for s in plan.states}
    assert keys["AB"] == () and keys["ABD"] == ("ID",)
    assert len(re.findall(r"insert\d+\(c\)", Engine(plan).source)) == 1
    rng = np.random.default_rng(len(p2_window))
    for trial in range(8):
        stream = uneven_times(rng, randgen.random_stream(rng, 45, "ABCD"))
        for sel, cons in POLICIES:
            got = drive(merge(pats), stream, sel, cons)
            if (sel, cons) == (SelectionPolicy.SKIP_TILL_ANY,
                               ConsumptionPolicy.REUSE):
                for p in pats:
                    assert set(got[p.id]) == oracle.enumerate_any(stream, p)


@pytest.mark.parametrize("sel, cons", POLICIES,
                         ids=[f"{s.value}-{c.value}" for s, c in POLICIES])
def test_step_match_keys_equal_runner_match_key(sel, cons):
    """Each complete match's key from the step is ``runner.match_key`` of
    its record, through Kleene states too."""
    rng = np.random.default_rng(40 + len(POLICIES))
    emitted = kleene = 0
    for trial in range(30):
        pats = [randgen.random_pattern(rng, "ABC", pid,
                                       force="kleene" if pid == 0 else None)
                for pid in range(int(rng.integers(1, 3)))]
        plan = merge(pats)
        eng = Engine(plan, sel, cons)
        for d in randgen.random_stream(rng, 40, "ABC"):
            eng.expire(d.seq_index, d.timestamp)
            res = eng.step(d)
            assert len(res.match_keys) == len(res.complete)
            for key, (pid, rec) in zip(res.match_keys, res.complete):
                assert key == runner.match_key(rec)
                emitted += 1
                kleene += any(k is StepKind.KLEENE_PLUS
                              for _, k in plan.states[rec.state_id].signature)
    assert emitted and kleene


def test_run_matches_equal_golden_matches(monkeypatch):
    """On the streams of acceptance check 1, each under the policy pairs
    in turn, ``Metrics.matches`` (keys from the step) equals
    ``golden_matches`` (keys from ``runner.match_key``)."""
    checked = dict.fromkeys(POLICIES, 0)
    for t, (pat, stream) in enumerate(randgen.acceptance_cases()):
        monkeypatch.setattr(runner, "build_plan",
                            lambda config, pat=pat: merge([pat]))
        sel, cons = POLICIES[t % len(POLICIES)]
        cfg = RunConfig(patterns=[format_pattern(pat)], selection=sel.value,
                        consumption=cons.value, compute_golden=False)
        got = runner.run(cfg, stream).matches
        assert got == runner.golden_matches(cfg, stream), (t, sel, cons)
        checked[sel, cons] += len(got[0])
    assert all(checked.values()), checked



@pytest.mark.parametrize("sel, cons", [
    (SelectionPolicy.SKIP_TILL_ANY, ConsumptionPolicy.REUSE),
    (SelectionPolicy.SKIP_TILL_NEXT, ConsumptionPolicy.CONSUME)])
def test_records_bind_seqs_ascending(sel, cons):
    """Every record a step creates binds its elements in arrival order, so
    its ``seq_tuple()``, which ``runner.match_key`` returns unsorted,
    strictly ascends; on random plans of Kleene, negation and plain
    patterns."""
    rng = np.random.default_rng(13)
    checked = kleene = 0
    for trial in range(60):
        pats = [randgen.random_pattern(rng, "ABCD", i, force=force)
                for i, force in enumerate(("plain", "kleene", "neg"))]
        eng = Engine(merge(pats), sel, cons)
        for d in randgen.random_stream(rng, 60, "ABCD"):
            eng.expire(d.seq_index, d.timestamp)
            for rec in eng.step(d).new_pms:
                seqs = rec.seq_tuple()
                assert all(a < b for a, b in zip(seqs, seqs[1:])), seqs
                checked += 1
                kleene += len(seqs) > len(rec.slots)
    assert checked > 1000 and kleene


ONE_STEP = ["SEQ(A a) WITHIN 5", "SEQ(B b, A a) WITHIN 5"]


@pytest.mark.parametrize("sel, cons", POLICIES,
                         ids=[f"{s.value}-{c.value}" for s, c in POLICIES])
@pytest.mark.parametrize("texts", [ONE_STEP[:1], ONE_STEP],
                         ids=["alone", "beside-two-step"])
def test_one_step_match_keys(monkeypatch, texts, sel, cons):
    """A one-step pattern's match key is a one-element tuple, alone and
    when its matches share a step with a two-step pattern's, so the keys
    sort together and CONSUME can test them; the run's matches equal
    ``golden_matches`` and, under skip-till-any/reuse, the oracle's."""
    pats = [parse_pattern(t, pattern_id=i) for i, t in enumerate(texts)]
    monkeypatch.setattr(runner, "build_plan", lambda config: merge(pats))
    cfg = RunConfig(patterns=texts, selection=sel.value,
                    consumption=cons.value, compute_golden=False)
    rng = np.random.default_rng(len(texts))
    for trial in range(10):
        stream = randgen.random_stream(rng, 30, "AB")
        eng = Engine(merge(pats), sel, cons)
        for d in stream:
            eng.expire(d.seq_index, d.timestamp)
            res = eng.step(d)
            for key, (pid, rec) in zip(res.match_keys, res.complete):
                assert type(key) is tuple and key == runner.match_key(rec)
        got = runner.run(cfg, stream).matches
        assert got[0] and got == runner.golden_matches(cfg, stream)
        if (sel, cons) == (SelectionPolicy.SKIP_TILL_ANY,
                           ConsumptionPolicy.REUSE):
            for p in pats:
                assert {k for _, k in got[p.id]} == \
                    oracle.enumerate_any(stream, p)


def check_store(plan, eng, created):
    """Each state's buffer holds exactly its alive records in creation
    order, and its buckets partition the buffer by key, in that order,
    none of them empty."""
    for s in plan.states:
        alive = [r for r in created if r.state_id == s.state_id and r.alive]
        assert list(s.buffer) == alive, s
        by_key = {}
        for r in alive:
            key = s.key_of(first_element(r))
            assert r.bucket_key == key
            by_key.setdefault(key, []).append(r)
        assert {k: list(b) for k, b in s.buckets.items()} == by_key, s
    assert eng.live_pm_count() == sum(len(s.buffer) for s in plan.states)


def test_store_holds_exactly_the_alive_records():
    """Expiry, guided and random-state reductions and skip-till-next drops
    in one run: after each, every buffer and bucket holds exactly its
    state's alive records."""
    texts = [wl.templates(window=60)[k] for k in ("P1", "P2", "P5", "P6")]
    plan = merge([parse_pattern(t, pattern_id=i)
                  for i, t in enumerate(texts)])
    eng = Engine(plan, SelectionPolicy.SKIP_TILL_NEXT)
    index, sketch = psd.assess(plan), cost.Sketch(plan)
    monitor = LatencyMonitor(plan.n)
    monitor.latency_ms = [2.0] * plan.n     # every pattern at twice its bound
    rng = np.random.default_rng(9)
    created, shed = [], [0, 0]      # guided, random-state
    for d in wl.gen_ds2(1500, 5):
        seq = d.seq_index
        if seq % 4 == 0:
            eng.expire(seq, d.timestamp)
            check_store(plan, eng, created)
        if seq % 50 == 25:
            b = selector.budgets(index, monitor, [1.0] * plan.n)
            audit = selector.select(index, (1 << plan.n) - 1, b)
            shed[0] += audit.discarded
            check_store(plan, eng, created)
        elif seq % 50 == 0:
            shed[1] += runner.shed_random_state(eng, rng, 0.3)
            check_store(plan, eng, created)
        res = eng.step(d)
        created += res.new_pms
        for r in res.new_pms:
            cost.sketch_update(sketch, r)
        check_store(plan, eng, created)
    c = eng.counters
    assert min(c.pms_expired, c.pms_policy_dropped, *shed) > 20
    assert c.pms_created == (c.pms_expired + sum(shed)
                             + c.pms_policy_dropped + eng.live_pm_count())


def expected_slots(parent, d):
    """The slot tuples a child of ``parent`` binding ``d`` may hold: from
    the start, by a single step, entering or extending a Kleene step."""
    if parent is None:
        return [(d,), ((d,),)]
    s = parent.slots
    out = [s + (d,), s + ((d,),)]
    if type(s[-1]) is tuple:
        out.append(s[:-1] + (s[-1] + (d,),))
    return out


def check_complete(plan, rec, d):
    """Every slot of ``rec``, built by the sweep of ``d``, reads back and
    holds what ``MatchRecord(...)`` plus buffering would hold."""
    held = {name: getattr(rec, name) for name in MatchRecord.__slots__}
    first = first_element(rec)
    ref = MatchRecord(rec.pattern_bits, rec.slots, rec.state_id,
                      first.seq_index, first.timestamp, d.seq_index,
                      rec.parent)
    state = plan.states[rec.state_id]
    ref.bucket_key = state.key_of(first)
    assert held == {name: getattr(ref, name)
                    for name in MatchRecord.__slots__}, rec
    assert rec.slots in expected_slots(rec.parent, d), rec
    assert state.depth == len(rec.slots)
    if rec.parent is not None:
        assert rec.pattern_bits & ~rec.parent.pattern_bits == 0
    assert rec in state.buckets[rec.bucket_key] and rec in state.buffer


@pytest.mark.parametrize("p2_window", ["10", "8 ms"])
def test_sweep_built_records_are_complete(p2_window):
    """The GENERIC plan has start, single, kleene-enter and kleene-extend
    edges and a child keyed unlike its parent: every record a sweep
    builds, buffered or emitted, holds every slot as the constructor
    would fill it, and after each expiry no state keeps an empty bucket
    and each buffer's length is its live count."""
    pats = [parse_pattern(GENERIC[0], pattern_id=0),
            parse_pattern(GENERIC[1].format(p2_window), pattern_id=1)]
    plan = merge(pats)
    assert {e.action for e in plan.edges} == {"single", "kleene-enter",
                                              "kleene-extend"}
    eng = Engine(plan)
    rng = np.random.default_rng(11)
    stream = uneven_times(rng, randgen.random_stream(rng, 300, "ABCD"))
    emitted = expired = 0
    for i, d in enumerate(stream):
        if i % 3 == 0:
            expired += eng.expire(d.seq_index, d.timestamp)
            for s in plan.states:
                assert all(s.buckets.values()), s
                assert len(s.buffer) == sum(len(b) for b in
                                            s.buckets.values())
                assert len(s.buffer) == sum(r.alive for r in s.buffer)
        res = eng.step(d)
        for rec in res.new_pms:
            check_complete(plan, rec, d)
        for _, rec in res.complete:
            check_complete(plan, rec, d)
            emitted += 1
    assert emitted and expired
    assert any(r.parent is None for r in plan.live_records())
