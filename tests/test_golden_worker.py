"""The golden pass in a forked worker: the same matches and recall as the
in-process pass, errors reach the caller, no child outlives ``run``, and
no process is started where a worker cannot save time."""

import dataclasses
import os
import subprocess
import sys
import time

import pytest

from matchshed import runner
from matchshed import workloads as wl
from matchshed.runner import STRATEGIES, RunConfig, run

POLICIES = (("skip-any", "reuse"), ("skip-next", "consume"))
DATASETS = {
    "ds1": (lambda: wl.gen_ds1(1500, 2),
            [wl.templates(window=500)[k] for k in ("P3", "P4")]),
    "ds2": (lambda: wl.gen_ds2(800, 2),
            [wl.templates(window=200)[k] for k in ("P1", "P2", "P5", "P6")]),
}


def cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)


def counting_workers(monkeypatch):
    started = []

    class Counted(runner.GoldenWorker):
        def __init__(self, *args):
            started.append(1)
            super().__init__(*args)

    monkeypatch.setattr(runner, "GoldenWorker", Counted)
    return started


def no_fork(monkeypatch):
    def refuse():
        raise AssertionError("a process was started")
    monkeypatch.setattr(os, "fork", refuse)


@pytest.mark.parametrize("dataset", sorted(DATASETS))
@pytest.mark.parametrize("selection,consumption", POLICIES)
def test_worker_matches_in_process_pass(monkeypatch, dataset, selection,
                                        consumption):
    gen, patterns = DATASETS[dataset]
    stream = gen()
    base = RunConfig(patterns=patterns, selection=selection,
                     consumption=consumption, seed=3)
    bounds = [x / 2 for x in run(base, stream).latency_mean]
    started = counting_workers(monkeypatch)
    for strategy in STRATEGIES:
        cfg = dataclasses.replace(base, strategy=strategy, bounds=bounds)
        cpus(monkeypatch, 1)
        want = run(cfg, stream)
        assert not started
        cpus(monkeypatch, 2)
        got = run(cfg, stream)
        assert len(started) == (strategy != "none")
        started.clear()
        assert got.golden_matches == want.golden_matches
        assert got.recall == want.recall
        assert got.matches == want.matches
        assert got.counters == want.counters
        assert got.latency_mean == want.latency_mean
        if strategy != "none":
            assert sum(map(len, got.golden_matches.values())) > 0


def guided(**kw):
    gen, patterns = DATASETS["ds2"]
    return RunConfig(patterns=patterns, strategy="guided",
                     bounds=[0.05] * 4, **kw), gen()


def test_worker_exception_reaches_caller(monkeypatch):
    import multiprocessing

    def boom(*args, **kwargs):
        raise ValueError("golden boom")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(runner, "golden_run", boom)   # the fork inherits it
    cfg, stream = guided()
    with pytest.raises(ValueError, match="golden boom") as info:
        run(cfg, stream)
    assert "in boom" in str(info.value.__cause__)     # the child's traceback
    assert not multiprocessing.active_children()


def test_worker_dying_without_result_raises(monkeypatch):
    import multiprocessing

    cpus(monkeypatch, 2)
    monkeypatch.setattr(runner, "golden_run", lambda *a, **k: os._exit(3))
    cfg, stream = guided()
    with pytest.raises(RuntimeError, match="code 3"):
        run(cfg, stream)
    assert not multiprocessing.active_children()


def test_main_loop_error_ends_worker(monkeypatch):
    import multiprocessing

    def slow_golden(*args, **kwargs):
        time.sleep(60)

    def broken_measure(*args, **kwargs):
        raise KeyError("measure")

    cpus(monkeypatch, 2)
    monkeypatch.setattr(runner, "golden_run", slow_golden)
    monkeypatch.setattr(runner, "measure", broken_measure)
    cfg, stream = guided()
    t0 = time.perf_counter()
    with pytest.raises(KeyError):
        run(cfg, stream)
    assert time.perf_counter() - t0 < 30
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("case", ["wallclock", "one-cpu", "no-affinity"])
def test_no_process_where_worker_cannot_pay(monkeypatch, case):
    cfg, stream = guided()
    cpus(monkeypatch, 2)
    if case == "wallclock":
        cfg.cost_mode = "wallclock"
        cfg.bounds = [1e9] * 4
    elif case == "one-cpu":
        cpus(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    no_fork(monkeypatch)
    m = run(cfg, stream)
    assert m.recall is not None and m.golden_matches


def test_runs_without_golden_pass_leave_multiprocessing_unloaded():
    code = ("import sys\n"
            "from matchshed import workloads as wl\n"
            "from matchshed.runner import RunConfig, run\n"
            "run(RunConfig(patterns=[wl.templates()['P3']]), "
            "wl.gen_ds1(300, 1))\n"
            "assert 'multiprocessing' not in sys.modules\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("k", [1, 2])
def test_missing_attribute_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                            k):
    """``matchshed run`` over a CSV without a column a pattern reads exits
    with a usage error naming the attribute, with the golden pass in
    process (one CPU) or in a forked worker (two), and writes nothing."""
    from matchshed import cli
    cpus(monkeypatch, k)
    started = counting_workers(monkeypatch)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as f:
        f.write('{"patterns": ["SEQ(A a, A b) WHERE SAME [ID] WITHIN 5 '
                'POLICY strict, consume"], "strategy": "random-state"}')
    data_path = os.path.join(tmp_path, "s.csv")
    with open(data_path, "w") as f:
        f.write("type,ts,x\nA,1,2\nA,2,3\nA,3,4\n")
    out_dir = os.path.join(tmp_path, "out")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", cfg_path, "--input", data_path,
                  "--out-dir", out_dir])
    assert exit_.value.code == 2
    assert len(started) == k - 1
    err = capsys.readouterr().err
    assert "attribute 'ID'" in err and "no such column" in err
    assert "Traceback" not in err
    assert not os.path.exists(out_dir)


def test_other_key_errors_are_raised(monkeypatch, tmp_path):
    """A ``KeyError`` over an attribute the input has is no usage error."""
    from matchshed import cli

    def broken_measure(*args, **kwargs):
        raise KeyError("x")

    monkeypatch.setattr(runner, "measure", broken_measure)
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as f:
        f.write('{"patterns": ["SEQ(A a, A b) WITHIN 5"]}')
    data_path = os.path.join(tmp_path, "s.csv")
    with open(data_path, "w") as f:
        f.write("type,ts,x\nA,1,2\nA,2,3\n")
    with pytest.raises(KeyError, match="x"):
        cli.main(["run", "--config", cfg_path, "--input", data_path])
