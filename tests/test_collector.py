"""No object of a run forms a reference cycle, so the per-element loops of
``runner._main_loop`` and ``engine.golden_run`` run with the cyclic
collector paused, and the caller's collector state comes back after
them, also when a loop raises."""

import ast
import functools
import gc
from types import FunctionType

import pytest

from matchshed import psd, runner, selector, sweep
from matchshed import workloads as wl
from matchshed.engine import Engine, golden_run
from matchshed.model import DataElement
from matchshed.parser import parse_pattern
from matchshed.plan import merge
from matchshed.runner import RunConfig, build_plan, run

POLICIES = (("skip-any", "reuse"), ("skip-next", "consume"))
DS1 = [wl.templates(window=500)[k] for k in ("P3", "P4")]
DS2 = [wl.templates(window=200)[k] for k in ("P1", "P2", "P5", "P6")]


@functools.cache
def stream_of(size):
    return wl.gen_ds1(size, 3)


def cyclic_garbage(fn, *args):
    """What one collection finds unreachable after ``fn(*args)``, run with
    the collector off so that nothing it leaves is collected before."""
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("size", [2000, 20000])
@pytest.mark.parametrize("sel, cons", POLICIES)
@pytest.mark.parametrize("strategy", runner.STRATEGIES)
def test_run_leaves_no_cycle(strategy, sel, cons, size):
    """After a warm-up run, a DS1 run at half the ``none`` run's latency
    leaves nothing for the cyclic collector, golden worker included."""
    stream = stream_of(size)
    cfg = RunConfig(patterns=DS1, selection=sel, consumption=cons)
    base = run(cfg, stream)
    cfg.strategy = strategy
    cfg.bounds = [x / 2 for x in base.latency_mean]
    m = run(cfg, stream)
    assert m.triggers or strategy == "none"
    assert cyclic_garbage(run, cfg, stream) == 0


@pytest.mark.parametrize("strategy", ["guided", "random-state"])
def test_ds2_run_leaves_no_cycle(strategy):
    """The DS2 patterns, Kleene, SUM and negation among them, as well."""
    stream = wl.gen_ds2(2000, 3)
    cfg = RunConfig(patterns=DS2, strategy=strategy, bounds=[0.05] * 4)
    run(cfg, stream)
    assert cyclic_garbage(run, cfg, stream) == 0


def test_deleted_engine_leaves_no_cycle():
    """An engine, its generated sweeps and everything they buffer go by
    reference counting once the engine is deleted."""
    eng = Engine(build_plan(RunConfig(patterns=DS2)))
    for d in wl.gen_ds2(2000, 3):
        eng.expire(d.seq_index, d.timestamp)
        eng.step(d)
    assert eng.live_pm_count()
    gc.collect()
    gc.disable()
    try:
        del eng
        assert gc.collect() == 0
    finally:
        gc.enable()


def defined_names(source):
    """The names a generated text defines at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        else:
            names.update(t.id for t in node.targets)
    return names


def test_load_leaves_no_generated_function_in_the_namespace():
    """``sweep.load`` returns exactly the names a generated text defines,
    taken out of the namespace the text ran in, so no generated function
    is left among the globals: for the sweeps of a DS2 engine (one calls
    a gap check), its fold and its reduction kernel."""
    eng = Engine(build_plan(RunConfig(patterns=DS2)))
    texts = [sweep.generate(eng), sweep.generate_fold(eng.plan),
             selector.generate(psd.assess(eng.plan))]
    assert "def gap_0(" in texts[0][0]
    for j, (source, ns) in enumerate(texts):
        names = sweep.load(source, ns, eng, f"test {j}")
        assert set(names) == defined_names(source)
        assert not [v for v in ns.values() if isinstance(v, FunctionType)
                    and v.__code__.co_filename.startswith("<matchshed")]


@pytest.mark.parametrize("was_on", [True, False])
def test_run_restores_the_collector_state(was_on):
    cfg = RunConfig(patterns=DS1, strategy="guided", bounds=[0.05] * 2)
    stream = stream_of(2000)
    if not was_on:
        gc.disable()
    try:
        run(cfg, stream)
        assert gc.isenabled() is was_on
    finally:
        gc.enable()


def test_raising_loops_restore_the_collector(monkeypatch):
    """A main loop that raises, beside the golden worker, and a golden
    pass that raises leave the collector on."""
    def broken_measure(*args, **kwargs):
        raise KeyError("measure")

    monkeypatch.setattr(runner, "measure", broken_measure)
    cfg = RunConfig(patterns=DS1, strategy="guided", bounds=[0.05] * 2)
    with pytest.raises(KeyError):
        run(cfg, stream_of(2000))
    assert gc.isenabled()
    plan = merge([parse_pattern("SEQ(A a, B b) WHERE SAME [ID] WITHIN 10")])
    with pytest.raises(KeyError):
        golden_run([DataElement("A", 0, 0.0, {"ID": 1.0}),
                    DataElement("B", 1, 1.0, {})], plan)
    assert gc.isenabled()
