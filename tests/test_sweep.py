"""Generated sweep kernels: guards and negation blockers decide and fault
exactly as the interpreter does, SAME on a start edge as well, and the
generated source is debuggable and printable, and equal for equal
plans."""

import gc
import json
import linecache
import os
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np
import pytest

from matchshed import selector, sweep
from matchshed import expr as ex
from matchshed import workloads as wl
from matchshed.engine import Engine, golden_run
from matchshed.model import (ConsumptionPolicy, DataElement, Pattern,
                             PatternStep, SelectionPolicy, StepKind, Window,
                             WindowKind)
from matchshed.parser import parse_pattern
from matchshed.plan import merge
from matchshed.psd import assess
from matchshed.runner import RunConfig, build_plan, run

import oracle
import randgen


def el(tag, seq, x):
    return DataElement(tag, seq, float(seq), {"x": x})


def interpreted(pred, env, diag=None):
    """The interpreter's verdict on ``env``, its faults added to ``diag``."""
    diag = diag if diag is not None else ex.EvalDiagnostics()
    return ex.eval_predicate(pred, env, diag), diag


def test_division_faults_in_operand_order():
    """sqrt(-1) faults before the zero divisor is looked at, on the guard
    path as in the interpreter."""
    pat = parse_pattern("SEQ(A a, B b) WHERE sqrt(a.x) / b.x < 1 WITHIN 10")
    a, b = el("A", 0, -1.0), el("B", 1, 0.0)
    plan = merge([pat])
    assert golden_run([a, b], plan) == {0: []}
    assert interpreted(pat.predicate, {"a": a, "b": b}) == (
        False, ex.EvalDiagnostics(domain_error=1))
    assert plan.diag == ex.EvalDiagnostics(domain_error=1)


CONSTS = [0, 0.0, -0.0, 1e200, -1e200, 2, -2.5, 0.5, -1]
VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e200, -1e200, 1e-300,
          float("inf"), float("nan")]
FUNCS = ["sin", "cos", "sqrt", "arcsin", "arccos"]


def random_tree(rng, depth, leaves):
    r = rng.random()
    if depth == 0 or r < 0.25:
        if rng.random() < 0.35:
            return ex.Num(CONSTS[rng.integers(len(CONSTS))])
        return leaves[rng.integers(len(leaves))]
    if r < 0.45:
        return ex.Func(FUNCS[rng.integers(len(FUNCS))],
                       random_tree(rng, depth - 1, leaves))
    return ex.Bin("+-*/^"[rng.integers(5)],
                  random_tree(rng, depth - 1, leaves),
                  random_tree(rng, depth - 1, leaves))


def random_conjunct(rng, leaves, must_read=None):
    while True:
        c = ex.Cmp(["<", "<=", ">", ">=", "="][rng.integers(5)],
                   random_tree(rng, 3, leaves), random_tree(rng, 3, leaves))
        if must_read is None or must_read in ex.referenced_bindings(c):
            return c


def pattern(steps, predicate):
    return Pattern(0, tuple(PatternStep(t, b, k) for t, b, k in steps),
                   predicate, Window(WindowKind.COUNT, 10))


GUARD_LEAVES = [ex.AttrRef("a", "x"), ex.AttrRef("c", "x"),
                ex.SumAgg("k", "x")]
SINGLE, PLUS, NOT = StepKind.SINGLE, StepKind.KLEENE_PLUS, StepKind.NEGATED


@pytest.mark.parametrize("seed", range(4))
def test_generated_guards_match_the_interpreter(seed):
    """SEQ(A a, B+ k[], C c) over A, B, B, C: the conjunct decides each of
    the three matches (k = B1, B2 or both) through a generated guard, or
    all of them at once when it reads ``a`` alone."""
    rng = np.random.default_rng(seed)
    for trial in range(150):
        c = random_conjunct(rng, GUARD_LEAVES)
        va, vb1, vb2, vc = (VALUES[i] for i in rng.integers(len(VALUES),
                                                             size=4))
        stream = [el("A", 0, va), el("B", 1, vb1), el("B", 2, vb2),
                  el("C", 3, vc)]
        plan = merge([pattern([("A", "a", SINGLE), ("B", "k", PLUS),
                               ("C", "c", SINGLE)], c)])
        got = {r.seq_tuple() for r in golden_run(stream, plan)[0]}
        a, b1, b2, cc = stream
        kleenes = [(b1,), (b2,), (b1, b2)]
        want, diag = set(), ex.EvalDiagnostics()
        if ex.referenced_bindings(c) <= {"a"}:
            ok, diag = interpreted(c, {"a": a})
            want = {(0, *(b.seq_index for b in k), 3) for k in kleenes
                    if ok}
        else:
            for k in kleenes:
                ok, _ = interpreted(c, {"a": a, "k": k, "c": cc}, diag)
                if ok:
                    want.add((0, *(b.seq_index for b in k), 3))
        assert (got, plan.diag) == (want, diag), (trial, c)


@pytest.mark.parametrize("seed", range(4))
def test_generated_blockers_match_the_interpreter(seed):
    """SEQ(A a, B+ k[], !N n, C c) over A, B, B, N, C: the N blocks a
    match exactly when the interpreter finds the conjunct true."""
    rng = np.random.default_rng(100 + seed)
    leaves = GUARD_LEAVES + [ex.AttrRef("n", "x")]
    for trial in range(150):
        c = random_conjunct(rng, leaves, must_read="n")
        va, vb1, vb2, vn, vc = (VALUES[i] for i in rng.integers(
            len(VALUES), size=5))
        stream = [el("A", 0, va), el("B", 1, vb1), el("B", 2, vb2),
                  el("N", 3, vn), el("C", 4, vc)]
        plan = merge([pattern([("A", "a", SINGLE), ("B", "k", PLUS),
                               ("N", "n", NOT), ("C", "c", SINGLE)], c)])
        got = {r.seq_tuple() for r in golden_run(stream, plan)[0]}
        a, b1, b2, n, cc = stream
        want, diag = set(), ex.EvalDiagnostics()
        for k in [(b1,), (b2,), (b1, b2)]:
            blocked, _ = interpreted(c, {"a": a, "k": k, "n": n, "c": cc},
                                     diag)
            if not blocked:
                want.add((0, *(b.seq_index for b in k), 4))
        assert (got, plan.diag) == (want, diag), (trial, c)


def test_equal_gap_checks_share_one_function():
    """DS2 P5 and P6 skip the same negated C after A-B, under the same
    blocker, on edges of one slot layout: one gap function serves both."""
    t = wl.templates(window=200)
    eng = Engine(merge([parse_pattern(t[k], pattern_id=i)
                        for i, k in enumerate(("P1", "P2", "P5", "P6"))]))
    assert eng.source.count("def gap_") == 1


def test_equal_gap_checks_on_other_slot_layouts():
    """The same negation check after one slot, two slots and a Kleene
    slot needs three gap functions; each pattern matches in the merged
    plan as it does alone."""
    texts = ["SEQ(A a, !C c, D d) WHERE SAME [ID] WITHIN 10",
             "SEQ(A a, B b, !C c, D d) WHERE SAME [ID] WITHIN 10",
             "SEQ(A+ a[], !C c, D d) WHERE SAME [ID] WITHIN 10"]
    stream = randgen.random_stream(np.random.default_rng(5), 400, "ABCD")
    plan = merge([parse_pattern(t, pattern_id=i)
                  for i, t in enumerate(texts)])
    assert Engine(plan).source.count("def gap_") == 3
    merged = golden_run(stream, plan)
    for i, t in enumerate(texts):
        (solo,) = golden_run(stream, merge([parse_pattern(t)])).values()
        assert [r.seq_tuple() for r in merged[i]] == \
            [r.seq_tuple() for r in solo] != []


def test_traceback_shows_the_generated_line():
    eng = Engine(merge([parse_pattern(
        "SEQ(A a, B b) WHERE a.x < b.x WITHIN 10")]))
    line = "ok = s0.attrs['x'] < attrs['x']"
    assert line in eng.source
    eng.step(el("A", 0, 1.0))
    with pytest.raises(KeyError) as info:
        eng.step(DataElement("B", 1, 1.0, {"y": 2.0}))
    text = "".join(traceback.format_exception(info.value))
    assert "<matchshed sweep" in text and line in text
    # the text is registered for as long as the engine lives
    (name,) = [f for f in linecache.cache if f.startswith("<matchshed sweep")
               and linecache.cache[f][2] == eng.source.splitlines(True)]
    del eng, info
    gc.collect()
    assert name not in linecache.cache


def test_equal_configs_generate_equal_text():
    """Engines, latency folds and cluster indexes built from equal configs
    generate equal text: no id or other per-object value reaches it."""
    config = RunConfig(patterns=[wl.templates(window=200)[k] for k in
                                 ("P1", "P2", "P3", "P5", "P6")],
                       selection="skip-next", consumption="consume")
    texts = []
    for _ in range(2):
        plan = build_plan(config)
        eng = Engine(plan, SelectionPolicy(config.selection),
                     ConsumptionPolicy(config.consumption))
        index = assess(plan)
        texts.append([eng.source, sweep.generate_fold(plan)[0],
                      selector.generate(index)[0]])
    assert texts[0] == texts[1] and "def gap_" in texts[0][0]


@pytest.mark.parametrize("texts", [
    ["SEQ(A a, B b) WHERE SAME [ID] WITHIN 10"],
    # the A state is unkeyed, so the B edge checks SAME itself
    ["SEQ(A a, C c) WITHIN 10", "SEQ(A a, B b) WHERE SAME [ID] WITHIN 10"],
])
def test_same_holds_for_one_nan_object(texts):
    """An A and a B that hold one NaN object as ID: ``expr`` and the oracle
    find one ID, and so does the engine, whose start edge no longer
    compares the A's NaN with itself and whose SAME checks compare by
    identity first."""
    nan = float("nan")
    pats = [parse_pattern(t, pattern_id=i) for i, t in enumerate(texts)]
    a = DataElement("A", 0, 0.0, {"ID": nan})
    b = DataElement("B", 1, 1.0, {"ID": nan})
    assert ex.eval_predicate(pats[-1].predicate, {"a": a, "b": b}, None)
    assert oracle.enumerate_any([a, b], pats[-1]) == {(0, 1)}
    got = golden_run([a, b], merge(pats))[len(pats) - 1]
    assert [r.seq_tuple() for r in got] == [(0, 1)]


def test_nan_object_blocks_a_negation_gap():
    """A C holding the A's NaN object as ID blocks ``!C`` under SAME, as in
    the oracle; a C holding another NaN does not."""
    pat = parse_pattern("SEQ(A a, !C c, B b) WHERE SAME [ID] WITHIN 10")
    nan = float("nan")
    for c_id, want in [(nan, set()), (float("nan"), {(0, 2)})]:
        stream = [DataElement("A", 0, 0.0, {"ID": nan}),
                  DataElement("C", 1, 1.0, {"ID": c_id}),
                  DataElement("B", 2, 2.0, {"ID": nan})]
        assert oracle.enumerate_any(stream, pat) == want
        got = golden_run(stream, merge([pat]))[0]
        assert {r.seq_tuple() for r in got} == want


@pytest.mark.parametrize("texts", [
    ["SEQ(A a, B b) WHERE SAME [ID] WITHIN 10"],
    # the A state is unkeyed: P0 has no SAME
    ["SEQ(A a, C c) WITHIN 10", "SEQ(A a, B b) WHERE SAME [ID] WITHIN 10"],
    # a first step that is a Kleene step
    ["SEQ(A+ a[], B b) WHERE SAME [ID] WITHIN 10"],
])
def test_same_attribute_missing_raises(texts):
    """A start edge checks no SAME, but an element without the attribute
    still raises ``KeyError``, as ``expr.eval_predicate`` does; so does a
    B without it after an A, but not a B that no A precedes, which the
    oracle compares with nothing, nor one after the A's window."""
    pats = [parse_pattern(t, pattern_id=i) for i, t in enumerate(texts)]
    pred = pats[-1].predicate
    a = DataElement("A", 0, 0.0, {"x": 1.0})
    with pytest.raises(KeyError):
        ex.eval_predicate(pred, {"a": a}, None)
    with pytest.raises(KeyError):
        golden_run([a], merge(pats))
    a = DataElement("A", 0, 0.0, {"ID": 1.0})
    b = DataElement("B", 1, 1.0, {"x": 1.0})
    env = {"a": [a] if "A+" in texts[-1] else a, "b": b}
    with pytest.raises(KeyError):
        ex.eval_predicate(pred, env, None)
    with pytest.raises(KeyError):
        oracle.enumerate_any([a, b], pats[-1])
    with pytest.raises(KeyError):
        golden_run([a, b], merge(pats))
    b = DataElement("B", 0, 0.0, {"x": 1.0})
    assert oracle.enumerate_any([b], pats[-1]) == set()
    assert golden_run([b], merge(pats)) == {p.id: [] for p in pats}
    # a B after the A's window has passed compares with nothing either,
    # whether or not an expiry has removed the A yet
    b = DataElement("B", 20, 20.0, {"x": 1.0})
    assert oracle.enumerate_any([a, b], pats[-1]) == set()
    for every in (1, 16):
        got = golden_run([a, b], merge(pats), expire_every=every)
        assert got == {p.id: [] for p in pats}


def test_sweep_source_tool_prints_one_sweep_per_trigger_type(tmp_path):
    """``tools/sweep_source.py`` on the DS2 templates prints one sweep per
    event type that triggers an edge, headed by that type, and ends with
    the plan's reduction kernel."""
    t = wl.templates(window=200)
    config = {"patterns": [t[k] for k in ("P1", "P2", "P5", "P6")]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, str(root / "tools" / "sweep_source.py"),
         "--config", str(path)],
        env=env, capture_output=True, text=True, check=True).stdout
    types = list(build_plan(RunConfig(**config)).edges_by_trigger)
    assert out.count("def sweep_") == len(types) == 6
    # the sweeps of 'D' and 'E' take the one gap check, printed first
    assert "def sweep_3(d, seq, ts, gap_0=gap_0):  # 'D'\n" in out
    assert "def sweep_4(d, seq, ts, gap_0=gap_0):  # 'E'\n" in out
    assert out.index("def gap_0(") < out.index("def sweep_0(")
    for i, ttype in enumerate(types):
        if ttype not in ("D", "E"):
            assert f"def sweep_{i}(d, seq, ts):  # {ttype!r}\n" in out
    kernel, _ = selector.generate(assess(build_plan(RunConfig(**config))))
    assert out.endswith("\n# reduction kernel\n" + kernel)


@pytest.mark.parametrize("case, names", [
    ("artifact", "unknown RunConfig keys config, counters"),
    ("missing", "No such file or directory"),
    ("pattern", "P1: expected ')', got 'WITHIN' (at position 13)")])
def test_sweep_source_tool_reports_a_bad_config(tmp_path, case, names):
    """The ``run.json`` artifact of ``matchshed run`` is no config, and
    the tool says so, as it does for a missing file or a bad pattern:
    exit 2, a message naming the fault, no code printed."""
    path = tmp_path / "cfg.json"
    if case == "artifact":
        run(RunConfig(patterns=["SEQ(A a, B b) WITHIN 5"],
                      out_dir=str(tmp_path / "out")), wl.gen_ds2(50, 0))
        path = tmp_path / "out" / "run.json"
    elif case == "pattern":
        path.write_text(json.dumps({"patterns": ["SEQ(A a, B b WITHIN 5"]}))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "sweep_source.py"),
         "--config", str(path)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert names in proc.stderr
    assert proc.stdout == ""
