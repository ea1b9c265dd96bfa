"""Deadline-ordered expiry: the same records leave their windows as under a
full sweep of every buffer, buffers and deadline queues stay bounded, the
negation history holds only negated types and stays bounded, and so does
all the memory the engine holds."""

import dataclasses
import gc
import tracemalloc
from bisect import bisect_left

import numpy as np
import pytest

from matchshed import workloads as wl
from matchshed.engine import Engine, golden_run
from matchshed.model import (ConsumptionPolicy, DataElement, MatchRecord,
                             SelectionPolicy, StepKind, Window, WindowKind)
from matchshed.parser import parse_pattern
from matchshed.plan import merge
from matchshed.runner import RunConfig, run, shed_random_state

import oracle
import randgen


def P(text, pid=0):
    return parse_pattern(text, pattern_id=pid)


def sweep_expire(eng, now_seq, now_ts):
    """Reference: the full sweep over every alive record of every state
    that the deadline queues replace; it iterates a snapshot of each
    buffer, which a discard changes."""
    evicted = 0
    for state in eng.plan.states:
        for rec in list(state.buffer):
            if not rec.alive:
                continue
            bits = rec.pattern_bits
            for b, w in zip(eng.bit, eng.windows):
                age = (now_seq - rec.first_seq if w.kind is WindowKind.COUNT
                       else now_ts - rec.first_ts)
                if bits & b and age > w.size:
                    bits &= ~b
            rec.pattern_bits = bits
            if bits == 0:
                eng.plan.discard(rec)
                evicted += 1
    eng.counters.pms_expired += evicted
    return evicted


def snapshot(plan):
    return [(r.state_id, r.seq_tuple(), r.pattern_bits)
            for r in plan.live_records()]


def alive_counts(plan):
    return [sum(1 for r in s.buffer if r.alive) for s in plan.states]


def jittered_stream(rng, size, alphabet, backwards=False):
    """Random elements with fractional timestamps; ``backwards`` lets a
    timestamp now and then fall below its predecessor's."""
    out, ts = [], 0.0
    for i in range(size):
        ts += float(rng.choice([0.0, 0.1, 0.35, 1.0, 2.5]))
        if backwards and rng.random() < 0.05:
            ts -= 3.0
        out.append(DataElement(alphabet[rng.integers(0, len(alphabet))], i,
                               ts, {"x": float(np.round(rng.uniform(0, 10), 3)),
                                    "ID": float(rng.integers(1, 4))}))
    return out


MIXED = ["SEQ(A a, B b, C c) WITHIN 6",
         "SEQ(A a, B b, D d) WHERE SAME [ID] WITHIN 4.5 ms",
         "SEQ(A a, B+ b[], C c) WHERE SUM(b[].x) < c.x + 5 WITHIN 9 ms",
         "SEQ(A a, !C c, D d) WITHIN 8",
         "SEQ(A a, B b, C c) WHERE a.x < c.x WITHIN 3.3 ms"]


def random_plan(rng):
    """Random patterns, each given a count or time window at random."""
    pats = []
    for pid in range(int(rng.integers(2, 6))):
        p = randgen.random_pattern(rng, "ABCD", pid)
        if rng.random() < 0.5:
            p = dataclasses.replace(
                p, window=Window(WindowKind.TIME,
                                 float(np.round(rng.uniform(1, 10), 2))))
        pats.append(p)
    return pats


def drive(pats, stream, rng_seed, selection, shed=0.0, inserts=0.0):
    """Run two engines over one stream, one expiring through the deadline
    queues and one by the reference sweep, with the same shedding and the
    same hand-inserted records, and compare them after every expiry."""
    rng = np.random.default_rng(rng_seed)
    engines = [Engine(merge(pats), selection) for _ in range(2)]
    new, ref = engines
    shed_rngs = [np.random.default_rng(rng_seed + 1) for _ in range(2)]
    a_state = next((s for s in new.plan.states
                    if s.signature == (("A", StepKind.SINGLE),)), None)
    through_a = 0 if a_state is None else a_state.psd
    expiries = evicted = 0
    for d in stream:
        if rng.random() < 0.5:
            got = new.expire(d.seq_index, d.timestamp)
            want = sweep_expire(ref, d.seq_index, d.timestamp)
            assert got == want
            assert snapshot(new.plan) == snapshot(ref.plan)
            assert [len(s.buffer) for s in new.plan.states] == \
                alive_counts(ref.plan) == alive_counts(new.plan)
            assert new.live_pm_count() == sum(alive_counts(ref.plan))
            expiries += 1
            evicted += got
        if shed and rng.random() < shed:
            dropped = [shed_random_state(e, r, 0.3)
                       for e, r in zip(engines, shed_rngs)]
            assert dropped[0] == dropped[1]
        if through_a and inserts and rng.random() < inserts:
            # a record buffered from outside the engine, possibly older
            # than records already queued
            back = int(rng.integers(0, 4))
            first = max(0, d.seq_index - back)
            bits = through_a & int(rng.integers(1, through_a + 1)) or through_a
            for e in engines:
                rec = MatchRecord(bits, (stream[first],), a_state.state_id,
                                  first, stream[first].timestamp, first)
                e.plan.insert(rec)
        r1, r2 = new.step(d), ref.step(d)
        assert [(r.state_id, r.seq_tuple(), r.pattern_bits)
                for r in r1.new_pms] == \
            [(r.state_id, r.seq_tuple(), r.pattern_bits) for r in r2.new_pms]
        assert [(p, r.seq_tuple()) for p, r in r1.complete] == \
            [(p, r.seq_tuple()) for p, r in r2.complete]
        assert r1.work == r2.work
    assert new.counters == ref.counters
    return expiries, evicted


@pytest.mark.parametrize("selection", [SelectionPolicy.SKIP_TILL_ANY,
                                       SelectionPolicy.SKIP_TILL_NEXT,
                                       SelectionPolicy.STRICT_CONTIGUITY])
def test_mixed_windows_match_full_sweep(selection):
    pats = [P(t, i) for i, t in enumerate(MIXED)]
    rng = np.random.default_rng(1)
    expiries, evicted = drive(pats, jittered_stream(rng, 600, "ABCD"), 2,
                              selection)
    assert expiries > 200 and evicted > 50


def test_mixed_windows_clear_one_bit_at_a_time():
    """A record shared by windows of different sizes loses their bits in
    turn, and stays alive until the last one."""
    pats = [P("SEQ(A a, B b) WITHIN 3", 0), P("SEQ(A a, C c) WITHIN 2 ms", 1),
            P("SEQ(A a, D d) WITHIN 5", 2)]
    plan = merge(pats)
    assert len(plan.deadlines) == 3
    eng = Engine(plan)
    eng.step(DataElement("A", 1, 1.0, {}))
    (rec,) = plan.live_records()
    assert eng.expire(3, 3.0) == 0 and rec.pattern_bits == 0b111
    assert eng.expire(4, 3.5) == 0 and rec.pattern_bits == 0b101
    assert eng.expire(5, 3.5) == 0 and rec.pattern_bits == 0b001
    assert eng.expire(7, 9.0) == 1 and not rec.alive
    assert eng.live_pm_count() == 0 and eng.counters.pms_expired == 1


def test_windows_of_equal_kind_and_size_share_a_queue():
    pats = [P("SEQ(A a, B b) WITHIN 5 ms", 0), P("SEQ(A a, C c) WITHIN 5 ms", 1),
            P("SEQ(A a, D d) WITHIN 5", 2)]
    queues = merge(pats).deadlines
    assert sorted((q.by_count, q.mask) for q in queues) == [(False, 0b110),
                                                             (True, 0b001)]


def test_skip_till_next_and_shedding_match_full_sweep():
    pats = [P(t, i) for i, t in enumerate(MIXED)]
    rng = np.random.default_rng(3)
    stream = jittered_stream(rng, 800, "ABCD")
    expiries, evicted = drive(pats, stream, 4, SelectionPolicy.SKIP_TILL_NEXT,
                              shed=0.1)
    assert evicted > 20


def test_inserted_records_match_full_sweep():
    """Records buffered through ``plan.insert``, some starting before
    records already queued, leave with the same sweep as engine ones."""
    pats = [P(t, i) for i, t in enumerate(MIXED)]
    rng = np.random.default_rng(5)
    drive(pats, jittered_stream(rng, 500, "ABCD"), 6,
          SelectionPolicy.SKIP_TILL_ANY, shed=0.05, inserts=0.2)


@pytest.mark.parametrize("seed", range(6))
def test_random_plans_match_full_sweep(seed):
    rng = np.random.default_rng(100 + seed)
    pats = random_plan(rng)
    selection = [SelectionPolicy.SKIP_TILL_ANY,
                 SelectionPolicy.SKIP_TILL_NEXT][seed % 2]
    stream = jittered_stream(rng, 300, "ABCD", backwards=seed >= 3)
    drive(pats, stream, seed, selection, shed=0.05, inserts=0.1)


# ------------------------------------------------------------ boundedness

def test_buffers_and_queues_stay_bounded(monkeypatch):
    """After every expiry each state holds exactly its alive records, and
    no deadline queue holds a record older than its window; between
    expiries none is older than the largest window plus the sweep
    cadence.  So a stream ten times longer, which creates ten
    times the records, does not double the records held."""
    texts = [t.replace("WITHIN 200", w) for t, w in zip(
        (wl.templates(window=200)[k] for k in ("P1", "P2", "P5", "P6")),
        ("WITHIN 40 ms", "WITHIN 25 ms", "WITHIN 30", "WITHIN 15"))]
    cadence = RunConfig(patterns=texts).expire_every
    largest = 40
    expire, step = Engine.expire, Engine.step
    peaks = {}

    def checked_expire(eng, now_seq, now_ts):
        evicted = expire(eng, now_seq, now_ts)
        for s in eng.plan.states:
            assert len(s.buffer) == sum(r.alive for r in s.buffer)
        for q in eng.plan.deadlines:
            now = now_seq if q.by_count else now_ts
            assert all(now - start <= q.size for start in q.starts)
        return evicted

    def checked_step(eng, d):
        for q in eng.plan.deadlines:
            now = d.seq_index if q.by_count else d.timestamp
            assert all(now - start <= largest + cadence
                       for start in q.starts)
        held = (sum(len(s.buffer) for s in eng.plan.states),
                sum(len(slot) for q in eng.plan.deadlines
                    for slot in q.slots.values()))
        peaks[key] = tuple(map(max, peaks.get(key, (0, 0)), held))
        return step(eng, d)

    monkeypatch.setattr(Engine, "expire", checked_expire)
    monkeypatch.setattr(Engine, "step", checked_step)
    created = {}
    for n in (600, 6000):
        stream = wl.gen_ds2(n, 7)
        base = dict(patterns=texts, compute_golden=False)
        key = (n, "none")
        calib = run(RunConfig(**base), stream)
        created[n] = calib.counters["pms_created"]
        bounds = [x / 2 for x in calib.latency_mean]
        for strategy in ("guided", "random-state"):
            key = (n, strategy)
            m = run(RunConfig(**base, strategy=strategy, bounds=bounds),
                    stream)
            assert m.accounting_closes() and m.counters["pms_shed"] > 0
    assert created[6000] > 8 * created[600]
    for strategy in ("none", "guided", "random-state"):
        short, long = peaks[(600, strategy)], peaks[(6000, strategy)]
        assert long[0] <= 2 * short[0] and long[1] <= 2 * short[1]


# under skip-till-next and consume; the time window counts milliseconds,
# which equal element indices in randgen streams
CONSUME = ["SEQ(A a, B b, C c) WHERE SAME [ID] AND a.x < c.x WITHIN 40",
           "SEQ(A a, B+ b[], C c) WHERE SAME [ID] WITHIN 30 ms"]


@pytest.mark.parametrize("text,late", [(CONSUME[0], False),
                                       (CONSUME[1], False),
                                       (CONSUME[1], True)],
                         ids=["count", "time", "late"])
def test_consumed_sets_stay_bounded(text, late):
    """The consumed elements kept per pattern stay within the window plus
    the trim cadence on a stream ten times longer, which consumes far
    more, also once timestamps decrease, and the matches stay the
    oracle's."""
    pat = P(text)
    for n in (500, 5000):
        rng = np.random.default_rng(n)
        if late:
            stream = jittered_stream(rng, n, "ABC", backwards=True)
            bound = largest_window_span(stream, pat.window.size) + 513
        else:
            stream = randgen.random_stream(rng, n, "ABC")
            bound = pat.window.size + 513
        eng = Engine(merge([pat]), SelectionPolicy.SKIP_TILL_NEXT,
                     ConsumptionPolicy.CONSUME)
        got, peak = set(), 0
        for d in stream:
            eng.expire(d.seq_index, d.timestamp)
            got.update(r.seq_tuple() for _, r in eng.step(d).complete)
            peak = max(peak, len(eng.consumed[0]))
        want = oracle.consume_filter(stream, pat,
                                     oracle.greedy_next(stream, pat))
        assert got == want
        assert peak <= bound
    assert sum(map(len, want)) > 2 * bound


def test_consumed_keeps_the_first_element_of_the_oldest_record():
    """Under skip-till-any the A stays buffered after its match consumes
    it, so the trim at element 512 keeps its tombstone, and the last B
    does not match it again."""
    stream = [DataElement(t, i, float(i), {})
              for i, t in enumerate("AB" + "X" * 600 + "B")]
    eng = Engine(merge([P("SEQ(A a, B b) WITHIN 5000")]),
                 SelectionPolicy.SKIP_TILL_ANY, ConsumptionPolicy.CONSUME)
    got = []
    for d in stream:
        eng.expire(d.seq_index, d.timestamp)
        got.extend(r.seq_tuple() for _, r in eng.step(d).complete)
    assert got == [(0, 1)] and eng.consumed == [{0, 1}]


# -------------------------------------------------------- negation history

# rare blockers (c.x > 9), so that a blocker trimmed too early shows
NEG = ["SEQ(A a, B b, !C c, D d) WHERE SAME [ID] AND c.x > 9 WITHIN 30 ms",
       "SEQ(A a, !C c, E e) WHERE c.x > 9.5 WITHIN 45 ms",
       "SEQ(A a, B b, !D d, E e) WHERE SAME [ID] AND d.x > b.x WITHIN 20"]


def history_len(eng):
    return sum(len(seqs) for seqs, _ in eng.history.values())


def negated_count(pats, stream):
    """Elements of the types some pattern negates: what an untrimmed
    history holds."""
    negated = {s.event_type for p in pats for s in p.steps
               if s.kind is StepKind.NEGATED}
    return sum(d.type_tag in negated for d in stream)


def largest_window_span(stream, size):
    """The most elements whose timestamps fall in one time window of
    ``size`` that ends at an element's timestamp."""
    ts = sorted(d.timestamp for d in stream)
    return max(i + 1 - bisect_left(ts, t - size) for i, t in enumerate(ts))


def run_engine(pats, stream, trim=True):
    eng = Engine(merge(pats))
    if not trim:
        eng._trim_history = lambda now_seq: None
    out, peak = [], 0
    for d in stream:
        eng.expire(d.seq_index, d.timestamp)
        out.extend((pid, r.seq_tuple()) for pid, r in eng.step(d).complete)
        peak = max(peak, history_len(eng))
    return out, peak, history_len(eng)


@pytest.mark.parametrize("texts", [NEG[:2], NEG], ids=["time", "mixed"])
def test_history_trimmed_under_time_windows(texts):
    pats = [P(t, i) for i, t in enumerate(texts)]
    stream = jittered_stream(np.random.default_rng(4), 4000, "ABCDE")
    got, peak, _ = run_engine(pats, stream)
    want, _, full = run_engine(pats, stream, trim=False)
    assert got == want and len(want) > 100
    assert full == negated_count(pats, stream)
    # the elements of the largest window plus the trim cadence
    assert peak <= largest_window_span(stream, 45) + 512


def test_history_bounded_once_timestamps_decrease():
    """A decreasing timestamp does not stop the trim: the history stays
    within the largest window plus the trim cadence."""
    pats = [P(t, i) for i, t in enumerate(NEG[:2])]
    rng = np.random.default_rng(8)
    stream = jittered_stream(rng, 6000, "ABCDE", backwards=True)
    got, peak, _ = run_engine(pats, stream)
    want, _, full = run_engine(pats, stream, trim=False)
    assert got == want and len(want) > 100
    bound = largest_window_span(stream, 45) + 512
    assert peak <= bound < full == negated_count(pats, stream)


def test_history_keeps_the_gap_of_the_oldest_record():
    """The element after the oldest alive record's last one is the first
    a gap check can read, so the trim at element 512 keeps it."""
    stream = [DataElement(t, i, float(i), {"x": 0.0})
              for i, t in enumerate("AC" + "B" * 600 + "DAD")]
    got, _, end = run_engine([P("SEQ(A a, !C c, D d) WITHIN 5000")], stream)
    assert got == [(0, (603, 604))] and end == 1


def test_history_only_for_negated_types():
    eng = Engine(merge([P(wl.templates(window=500)[k], i)
                        for i, k in enumerate(("P3", "P4"))]))
    assert eng.history == {}
    for d in wl.gen_ds1(300, 1):
        eng.expire(d.seq_index, d.timestamp)
        eng.step(d)
    assert eng.history == {}


def test_golden_run_unchanged_by_history_trim(monkeypatch):
    pats = [P(t, i) for i, t in enumerate(NEG)]
    stream = wl.gen_ds2(2000, 9)
    got = golden_run(stream, merge(pats))
    monkeypatch.setattr(Engine, "_trim_history", lambda self, now_seq: None)
    want = golden_run(stream, merge(pats))
    assert {p: [r.seq_tuple() for r in rs] for p, rs in got.items()} == \
        {p: [r.seq_tuple() for r in rs] for p, rs in want.items()}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("selection,consumption", [
    (SelectionPolicy.SKIP_TILL_ANY, ConsumptionPolicy.REUSE),
    (SelectionPolicy.SKIP_TILL_NEXT, ConsumptionPolicy.CONSUME)])
def test_golden_run_same_at_expiry_cadence(seed, selection, consumption):
    """Extension-time window checks keep the golden matches exact when
    windows are expired only every 16th element."""
    rng = np.random.default_rng(200 + seed)
    pats = random_plan(rng)
    stream = jittered_stream(rng, 400, "ABCD")
    every = golden_run(stream, merge(pats), selection, consumption)
    sparse = golden_run(stream, merge(pats), selection, consumption,
                        expire_every=16)
    assert sum(map(len, every.values())) > 0
    assert {p: [r.seq_tuple() for r in rs] for p, rs in sparse.items()} == \
        {p: [r.seq_tuple() for r in rs] for p, rs in every.items()}


# ------------------------------------------------------------- memory soak

def test_engine_memory_flat_on_a_longer_stream():
    """What matchshed code still holds after a run, negation history,
    tombstones and records included, stays flat on a stream ten times
    longer, with late elements.  A full collection first empties the
    interpreter's free lists, which hold freed tuples as allocated."""
    pats = [P(NEG[0], 0), P(CONSUME[1], 1)]
    held = {}
    for n in (1000, 10000):
        stream = jittered_stream(np.random.default_rng(1), n, "ABCD",
                                 backwards=True)
        assert any(b.timestamp < a.timestamp
                   for a, b in zip(stream, stream[1:]))
        eng = Engine(merge(pats), SelectionPolicy.SKIP_TILL_NEXT,
                     ConsumptionPolicy.CONSUME)
        tracemalloc.start()
        try:
            emitted = 0
            for d in stream:
                eng.expire(d.seq_index, d.timestamp)
                emitted += len(eng.step(d).complete)
            gc.collect()
            snap = tracemalloc.take_snapshot().filter_traces([
                tracemalloc.Filter(True, "*/matchshed/*"),
                tracemalloc.Filter(True, "<matchshed sweep *>")])
        finally:
            tracemalloc.stop()
        assert emitted > n / 10
        held[n] = sum(s.size for s in snap.statistics("filename"))
    assert held[10000] < 1.5 * held[1000]
