import csv
import dataclasses
import json
import os

import pytest

from matchshed import cli, cost, runner, selector, workloads as wl
from matchshed.engine import Engine
from matchshed.model import DataElement
from matchshed.runner import (Metrics, RunConfig, recall, rolling_recall,
                              run)

PATS = ["SEQ(A a, B b, C c) WHERE SAME [ID] WITHIN 60",
        "SEQ(A a, B b, D d) WHERE SAME [ID] WITHIN 60"]


def small_stream(seed=0, n=1500):
    return wl.gen_ds2(n, seed)


def cfg(**kw):
    kw.setdefault("patterns", PATS)
    kw.setdefault("seed", 1)
    return RunConfig(**kw)


def test_recall_examples():
    golden = [(0, ("m1",)), (1, ("m2",)), (2, ("m3",)), (3, ("m4",))]
    assert recall(golden, golden) == 1.0
    assert recall(golden, []) == 0.0
    assert recall(golden, [golden[0], golden[2]]) == 0.5
    assert recall([], []) == 1.0


def test_none_strategy_full_output():
    m = run(cfg(strategy="none"), small_stream())
    assert m.triggers == 0
    assert m.recall is None
    assert m.accounting_closes()
    assert all(len(m.matches[i]) > 0 for i in range(2))


def test_no_overload_identity():
    stream = small_stream()
    base = run(cfg(strategy="none"), stream)
    eased = run(cfg(strategy="guided", bounds=[1e9, 1e9]), stream)
    assert eased.triggers == 0
    assert eased.matches == base.matches
    assert eased.counters["cms_emitted"] == base.counters["cms_emitted"]
    assert eased.recall == [1.0, 1.0]


def overload_bounds(stream):
    base = run(cfg(strategy="none"), stream)
    return [max(x, 1e-9) / 2 for x in base.latency_mean], base


def test_guided_reduces_and_recall_in_range():
    stream = small_stream()
    bounds, base = overload_bounds(stream)
    m = run(cfg(strategy="guided", bounds=bounds), stream)
    assert m.triggers > 0
    assert m.counters["pms_shed"] > 0
    assert m.accounting_closes()
    for i in range(2):
        got = {k for _, k in m.matches[i]}
        want = {k for _, k in m.golden_matches[i]}
        assert got <= want          # reduction never invents matches
    assert all(0.0 <= r <= 1.0 for r in m.recall)


GUIDED_SCENES = {
    "ds1": (lambda: [wl.templates(window=500)[k] for k in ("P3", "P4")],
            lambda: wl.gen_ds1(3000, 0)),
    "ds2": (lambda: [wl.templates(window=200)[k].replace(
                         "WITHIN 200", "WITHIN 200 ms")
                     for k in ("P1", "P2", "P5", "P6")],
            lambda: wl.gen_ds2(1500, 3)),
}


@pytest.mark.parametrize("scene", sorted(GUIDED_SCENES))
def test_guided_reductions_find_every_live_pm_credited(monkeypatch, scene):
    """At every reduction of a guided run each live PM holds the entry of
    its own key: a run credits each record in the step that creates it,
    so the kernel, which reads only ``MatchRecord.entry``, reads the
    counters a table lookup would."""
    patterns, stream = (make() for make in GUIDED_SCENES[scene])
    base = run(RunConfig(patterns=patterns, strategy="none",
                         compute_golden=False), stream)
    bounds = [max(x, 1e-9) / 2 for x in base.latency_mean]
    sketches, checked = [], []
    budgets = selector.budgets

    class KeptSketch(cost.Sketch):
        def __init__(self, plan):
            super().__init__(plan)
            sketches.append(self)

    def checked_budgets(index, *args, **kwargs):
        (sketch,) = sketches
        live = list(index.plan.live_records())
        assert all(pm.entry is sketch.table.get(cost.attr_key(sketch, pm))
                   for pm in live)
        checked.append(len(live))
        return budgets(index, *args, **kwargs)

    monkeypatch.setattr(cost, "Sketch", KeptSketch)
    monkeypatch.setattr(selector, "budgets", checked_budgets)
    m = run(RunConfig(patterns=patterns, strategy="guided", bounds=bounds,
                      compute_golden=False), stream)
    assert len(checked) == len(m.audits) > 10
    assert sum(checked) > 1000 and m.counters["pms_shed"] > 0


def test_random_state_full_drop_kills_buffered_matches():
    stream = small_stream()
    bounds, base = overload_bounds(stream)
    m = run(cfg(strategy="random-state", bounds=bounds, drop_ratio=1.0),
            stream)
    assert m.triggers > 0
    assert sum(len(m.matches[i]) for i in range(2)) < \
        sum(len(base.matches[i]) for i in range(2))
    assert m.accounting_closes()


def test_random_input_sheds_elements():
    stream = small_stream()
    bounds, _ = overload_bounds(stream)
    m = run(cfg(strategy="random-input", bounds=bounds, drop_ratio=0.7),
            stream)
    assert m.triggers > 0
    assert all(r < 1.0 for r in m.recall)


def test_rolling_recall_bucketing():
    golden = [(5, "a"), (15, "b"), (25, "c")]
    reduced = [(5, "a"), (25, "c")]
    assert rolling_recall(golden, reduced, 10, 30) == [1.0, 0.0, 1.0]
    assert rolling_recall([], [], 10, 20) == [None, None]


def test_config_validation():
    with pytest.raises(ValueError):
        cfg(strategy="magic")
    with pytest.raises(ValueError):
        cfg(drop_ratio=1.5)
    with pytest.raises(ValueError):
        cfg(cost_mode="guesswork")


@pytest.mark.parametrize("field, value", [
    ("select_every", 0), ("select_every", float("nan")),
    ("select_every", 2.5), ("select_every", "400"), ("alpha", None),
    ("alpha", 1.5), ("alpha", -0.1),
    ("alpha", float("nan")), ("epoch_len", -5), ("epoch_len", 2.5),
    ("drop_ratio", -0.1), ("drop_ratio", 1.5), ("drop_ratio", float("nan")),
    ("seed", True), ("epoch_len", True), ("select_every", -1),
    ("selection", "bogus"), ("consumption", "x"), ("mode", "y"),
    ("seed", -1), ("seed", 1.5), ("patterns", "SEQ(A a, B b) WITHIN 5"),
    ("patterns", []), ("patterns", [None]),
    ("select_every", True), ("alpha", True), ("seed", "0"),
    ("drop_ratio", "x"), ("drop_ratio", None), ("selection", ["strict"]),
    ("consumption", {}), ("compute_golden", "false"),
    ("compute_golden", 0), ("out_dir", 5)])
def test_config_rejects_knobs_that_break_a_run(field, value):
    """Values that crashed a run (a string ``select_every`` fails
    mid-loop, a bad policy, mode or seed fails only after a golden worker
    has forked, a bare pattern string is parsed one character at a time,
    a null or string number or an unhashable policy raised
    ``TypeError``, which ``matchshed run`` showed as a traceback), ran
    silently as something else (a NaN ``select_every`` turned guided
    reductions off, the string ``"false"`` ran the golden pass) or broke
    it (an EWMA that over-corrects, a decay at every element); an
    ``out_dir`` that is no string ran the whole stream before
    ``write_artifacts`` raised ``TypeError``."""
    with pytest.raises(ValueError, match=field):
        cfg(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("select_every", 1), ("select_every", 400),
    ("compute_golden", False), ("alpha", 0.0), ("alpha", 1.0),
    ("epoch_len", 0), ("epoch_len", None), ("epoch_len", 250),
    ("selection", "strict"), ("consumption", "consume"),
    ("mode", "separate"), ("seed", 0), ("drop_ratio", 0.0),
    ("drop_ratio", 1.0), ("patterns", (PATS[0],))])
def test_config_accepts_knobs_at_their_limits(field, value):
    assert getattr(cfg(**{field: value}), field) == value


@pytest.mark.parametrize("bounds", [
    [0.01], [0.01, 0.01, 0.01], [], [0.0, 1.0], [1.0, -2.0],
    [float("nan"), 1.0], [1.0, float("nan")], "ab", 5, ["a", "b"],
    [None, 1.0]])
def test_config_rejects_bounds_not_one_positive_per_pattern(bounds):
    with pytest.raises(ValueError, match="bounds"):
        cfg(strategy="guided", bounds=bounds)


def test_config_accepts_positive_bounds_and_none():
    assert cfg(bounds=None).bounds is None
    assert cfg(bounds=[1e-9, float("inf")]).bounds == [1e-9, float("inf")]
    assert cfg(bounds=(0.5, 2)).bounds == (0.5, 2)


def test_artifacts_written_and_deterministic(tmp_path):
    stream = small_stream()
    bounds, _ = overload_bounds(stream)
    outs = []
    for sub in ("r1", "r2"):
        out = os.path.join(tmp_path, sub)
        run(cfg(strategy="guided", bounds=bounds, out_dir=out), stream)
        outs.append(out)
    names = ["plan.txt", "sketch.csv", "matches.csv", "metrics.csv",
             "audit.csv"]
    for nm in names:
        a = open(os.path.join(outs[0], nm), "rb").read()
        b = open(os.path.join(outs[1], nm), "rb").read()
        assert a == b, nm
    manifest = json.load(open(os.path.join(outs[0], "run.json")))
    assert manifest["config"]["strategy"] == "guided"
    assert manifest["triggers"] > 0


@pytest.fixture
def upkeep(monkeypatch):
    """Counts the calls of the cost model's upkeep."""
    calls = dict.fromkeys(("sketch_update", "decay"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cost, "sketch_update",
                        counted("sketch_update", cost.sketch_update))
    monkeypatch.setattr(cost, "decay", counted("decay", cost.decay))
    return calls


UNGUIDED = ("none", "random-state", "random-input")


@pytest.mark.parametrize("strategy", UNGUIDED)
def test_unguided_run_skips_cost_model(upkeep, strategy):
    stream = small_stream()
    bounds, _ = overload_bounds(stream)
    upkeep.update(dict.fromkeys(upkeep, 0))
    m = run(cfg(strategy=strategy, bounds=bounds), stream)
    assert m.counters["pms_created"] > 0
    assert upkeep == {"sketch_update": 0, "decay": 0}


@pytest.mark.parametrize("strategy,out", [("guided", False)] +
                         [(s, True) for s in UNGUIDED])
def test_cost_model_kept_where_read(upkeep, tmp_path, strategy, out):
    stream = small_stream()
    bounds, _ = overload_bounds(stream)
    upkeep.update(dict.fromkeys(upkeep, 0))
    out_dir = os.path.join(tmp_path, "out") if out else None
    m = run(cfg(strategy=strategy, bounds=bounds, out_dir=out_dir), stream)
    created = m.counters["pms_created"]
    assert upkeep["sketch_update"] == created > 0
    assert upkeep["decay"] > 0


@pytest.mark.parametrize("strategy", UNGUIDED)
def test_cost_model_does_not_change_unguided_output(tmp_path, strategy):
    stream = small_stream()
    bounds, _ = overload_bounds(stream)
    plain = run(cfg(strategy=strategy, bounds=bounds), stream)
    kept = run(cfg(strategy=strategy, bounds=bounds,
                   out_dir=os.path.join(tmp_path, "out")), stream)
    if strategy != "none":
        assert plain.triggers > 0
    for m in (plain, kept):
        m.audits = [a.csv_row(m.n) for a in m.audits]
    for field in ("matches", "counters", "audits", "latency_mean",
                  "triggers"):
        assert getattr(plain, field) == getattr(kept, field), field


def test_run_json_reports_state_work_and_faults(tmp_path, monkeypatch):
    stream = small_stream()
    step = Engine.step
    work = []

    def summed(eng, d):
        res = step(eng, d)
        work.append(sum(res.work.values()))
        return res

    monkeypatch.setattr(Engine, "step", summed)
    out = os.path.join(tmp_path, "out")
    m = run(cfg(strategy="none", out_dir=out), stream)
    assert sum(m.state_work.values()) == sum(work) > 0
    assert m.eval_faults == {"div_by_zero": 0, "domain_error": 0,
                             "overflow": 0}
    manifest = json.load(open(os.path.join(out, "run.json")))
    assert manifest["state_work"] == {str(k): v
                                      for k, v in m.state_work.items()}
    assert manifest["eval_faults"] == m.eval_faults


def test_eval_faults_count_division_by_zero(monkeypatch):
    plans = []
    build = runner.build_plan

    def kept_plan(config):
        plans.append(build(config))
        return plans[-1]

    monkeypatch.setattr(runner, "build_plan", kept_plan)
    stream = [DataElement(t, i, float(i),
                          {"x": 0.0 if t == "B" else 1.0, "ID": 1.0})
              for i, t in enumerate("ABAB")]
    m = run(cfg(patterns=["SEQ(A a, B b) WHERE a.x / b.x < 1 WITHIN 10"]),
            stream)
    assert m.eval_faults["div_by_zero"] > 0
    assert m.eval_faults == dataclasses.asdict(plans[0].diag)
    assert m.matches == {0: []}


def test_cli_end_to_end(tmp_path, capsys):
    data = os.path.join(tmp_path, "s.csv")
    assert cli.main(["datagen", "--dataset", "ds2", "--count", "800",
                     "--seed", "3", "--out", data]) == 0
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"patterns": PATS, "strategy": "none"}, f)
    out_dir = os.path.join(tmp_path, "out")
    assert cli.main(["run", "--config", cfg_path, "--input", data,
                     "--out-dir", out_dir]) == 0
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
    captured = capsys.readouterr().out
    assert "P1:" in captured and "triggers=0" in captured


@pytest.mark.parametrize("text, names", [
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "foo": 1, "bar": 2}',
     "unknown RunConfig keys bar, foo"),
    ('["SEQ(A a, B b) WITHIN 5"]', "a run configuration is a JSON object"),
    ('{"patterns": "SEQ(A a, B b) WITHIN 5"}', "patterns"),
    ('{"strategy": "none"}', "missing RunConfig keys patterns"),
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "alpha": null}', "alpha"),
    # the length-scaled overhead is gone; an old config does not run
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "theta": "constant"}',
     "unknown RunConfig keys theta"),
    # the cost unit and the expiry cadence are constants of the runner
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "cost_unit": 0.01}',
     "unknown RunConfig keys cost_unit"),
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "expire_every": 16}',
     "unknown RunConfig keys expire_every"),
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"], "out_dir": 5}', "out_dir")])
def test_bad_config_file_is_a_usage_error(tmp_path, capsys, text, names):
    path = os.path.join(tmp_path, "cfg.json")
    with open(path, "w") as f:
        f.write(text)
    with pytest.raises(ValueError, match=names):
        RunConfig.from_json(path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", path, "--input", "unread.csv"])
    assert exit_.value.code == 2
    assert names in capsys.readouterr().err


def test_custom_dataset_without_spec_is_a_usage_error(tmp_path, capsys):
    out = os.path.join(tmp_path, "s.csv")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["datagen", "--dataset", "custom", "--out", out])
    assert exit_.value.code == 2
    assert "--spec" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("args", [
    ["--drift", "bad"], ["--drift", "5:x:low:1"],
    ["--count", "10", "--drift", "50:x:0:1"], ["--drift", "5:nope:0:1"],
    ["--drift", "5:x:2:1"]])
def test_malformed_drift_is_a_usage_error(tmp_path, capsys, args):
    out = os.path.join(tmp_path, "s.csv")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["datagen", "--dataset", "ds2", *args, "--out", out])
    assert exit_.value.code == 2
    assert "--drift" in capsys.readouterr().err
    assert not os.path.exists(out)


SPEC = {"alphabet": ["A", "B"], "attrs": {"x": [0.0, 1.0]}, "count": 10,
        "seed": 1}


@pytest.mark.parametrize("spec, args, names", [
    (dict(SPEC, bogus=1, extra=2), [],
     "unknown GeneratorSpec keys bogus, extra"),
    (dict(SPEC, drifts=[{"offset": 5, "attr": "x", "low": 0, "high": 1,
                         "kind": "up"}]), [], "unknown Drift keys kind"),
    (dict(SPEC, drifts=[{"offset": 50, "attr": "x", "low": 0, "high": 1}]),
     [], "drift offset 50 outside the stream of count 10"),
    ({"alphabet": ["A"], "attrs": {}}, [], "missing GeneratorSpec keys count"),
    ("[1]", [], "a generator spec is a JSON object"),
    (dict(SPEC, count=-1), [], "count must be an integer >= 0"),
    (None, ["--dataset", "custom", "--spec", "/nonexistent.json"],
     "/nonexistent.json"),
    (None, ["--dataset", "ds2", "--count", "-5"],
     "count must be an integer >= 0"),
    # values of the wrong shape, each checked by GeneratorSpec itself
    (dict(SPEC, drifts=5), [], "drifts is a JSON list"),
    (dict(SPEC, attrs={"x": ["lo", 1]}), [], "attrs 'x': ['lo', 1] is"),
    (dict(SPEC, attrs={"x": [1]}), [], "attrs 'x': [1] is"),
    (dict(SPEC, attrs={"x": [2, 1]}), [], "attrs 'x': [2, 1] is"),
    (dict(SPEC, attrs={"x": [-1e308, 1e308]}), [], "attrs 'x': [-1e+308"),
    (dict(SPEC, attrs={"n": ["int", 0, 2**63]}), [], "attrs 'n': ['int', 0,"),
    (dict(SPEC, attrs={"n": ["int", 1.5, 3]}), [], "attrs 'n': ['int', 1.5"),
    (dict(SPEC, attrs=5), [], "attrs must map attribute names to ranges"),
    (dict(SPEC, alphabet=[]), [], "alphabet must be one or more"),
    (dict(SPEC, alphabet=["A", ""]), [], "alphabet must be one or more"),
    (dict(SPEC, alphabet="AB"), [], "alphabet must be one or more"),
    (dict(SPEC, seed=-3), [], "seed must be an integer >= 0"),
    (dict(SPEC, seed=1.5), [], "seed must be an integer >= 0"),
    (None, ["--dataset", "ds1", "--seed", "-1"],
     "seed must be an integer >= 0"),
    (dict(SPEC, drifts=[{"offset": "5", "attr": "x", "low": 0, "high": 1}]),
     [], "drift offset '5' outside"),
    (dict(SPEC, drifts=[{"offset": 5, "attr": "x", "low": 0, "high": 1,
                         "type_tag": "Z"}]), [],
     "drift type 'Z' not in alphabet")])
def test_bad_spec_or_count_is_a_usage_error(tmp_path, capsys, spec, args,
                                            names):
    """A bad ``--spec`` file or a negative ``--count`` is reported through
    the parser, as ``--drift`` is, not as a traceback."""
    out = os.path.join(tmp_path, "s.csv")
    if spec is not None:
        path = os.path.join(tmp_path, "spec.json")
        with open(path, "w") as f:
            f.write(spec if isinstance(spec, str) else json.dumps(spec))
        args = ["--dataset", "custom", "--spec", path]
    with pytest.raises(SystemExit) as exit_:
        cli.main(["datagen", *args, "--out", out])
    assert exit_.value.code == 2
    assert names in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("config, data, names", [
    (None, "type,ts,x\nA,1,2\n", "/nonexistent.json"),
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"]}', None, "/nonexistent.csv"),
    ('{"patterns": ["SEQ(A a, B b) WITHIN 5"]}',
     "type,ts,x\nA,1,2\nB,x,2\n", "s.csv:3: non-numeric value")])
def test_missing_file_or_bad_csv_is_a_usage_error(tmp_path, capsys, config,
                                                  data, names):
    """``matchshed run`` reports a missing config or input file and a
    malformed CSV through its parser, the CSV with its ``path:line:``."""
    cfg_path, data_path = "/nonexistent.json", "/nonexistent.csv"
    if config is not None:
        cfg_path = os.path.join(tmp_path, "cfg.json")
        with open(cfg_path, "w") as f:
            f.write(config)
    if data is not None:
        data_path = os.path.join(tmp_path, "s.csv")
        with open(data_path, "w") as f:
            f.write(data)
    out_dir = os.path.join(tmp_path, "out")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", cfg_path, "--input", data_path,
                  "--out-dir", out_dir])
    assert exit_.value.code == 2
    assert names in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("text, names", [
    ("SEQ(A a, B b WITHIN 5",
     "P2: expected ')', got 'WITHIN' (at position 13)"),
    ("SEQ(A a, B b) WHERE a.x < q.x WITHIN 5",
     "P2: unknown binding 'q' (at position 26)"),
    ("SEQ(A a, !B b, !C c, D d) WHERE b.x < c.x WITHIN 5",
     "P2: a conjunct may reference at most one negated binding, not b, c"),
    ("SEQ(A a, B b) WITHIN 0",
     "P2: window size must be positive and finite (at position 21)"),
    # a latency bound is RunConfig.bounds, no longer a clause of the grammar
    ("SEQ(A a, B b) WITHIN 5 BOUND 20 ms",
     "P2: trailing input 'BOUND' (at position 23)")])
@pytest.mark.parametrize("strategy", ["none", "guided"])
def test_bad_pattern_is_a_usage_error(tmp_path, capsys, text, names,
                                      strategy):
    """A pattern that does not parse or compile is reported through the
    parser with its name and position, as a bad config value is."""
    cfg_path = os.path.join(tmp_path, "cfg.json")
    with open(cfg_path, "w") as f:
        json.dump({"patterns": ["SEQ(A a, B b) WITHIN 5", text],
                   "strategy": strategy}, f)
    data_path = os.path.join(tmp_path, "s.csv")
    with open(data_path, "w") as f:
        f.write("type,ts,x\nA,1,2\nB,2,3\n")
    out_dir = os.path.join(tmp_path, "out")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", cfg_path, "--input", data_path,
                  "--out-dir", out_dir])
    assert exit_.value.code == 2
    assert names in capsys.readouterr().err
    assert not os.path.exists(out_dir)


def test_default_bounds_are_1000_ms_each(monkeypatch):
    """``bounds=None`` runs as one bound of 1000 ms per pattern does."""
    seen = []
    trigger = selector.trigger

    def recorded(monitor, bounds):
        seen.append(list(bounds))
        return trigger(monitor, bounds)

    monkeypatch.setattr(selector, "trigger", recorded)
    stream = small_stream()
    runs = [run(cfg(strategy="guided", bounds=b), stream)
            for b in (None, [1000.0, 1000.0])]
    assert seen and all(b == [1000.0, 1000.0] for b in seen)
    for m in runs:
        m.audits = [a.csv_row(m.n) for a in m.audits]
    for field in ("matches", "counters", "audits", "latency_mean",
                  "triggers", "recall"):
        assert getattr(runs[0], field) == getattr(runs[1], field), field


def _cli_runs(tmp_path):
    """Two runs written by ``matchshed run --out-dir`` under ``runs/``:
    ``r0`` without shedding, ``r1`` shedding input under tight bounds."""
    data = os.path.join(tmp_path, "s.csv")
    assert cli.main(["datagen", "--dataset", "ds2", "--count", "600",
                     "--seed", "4", "--out", data]) == 0
    runs = os.path.join(tmp_path, "runs")
    for j, extra in enumerate([{"strategy": "none"},
                               {"strategy": "random-input",
                                "bounds": [0.001, 0.001],
                                "compute_golden": False}]):
        cfg_path = os.path.join(tmp_path, f"cfg{j}.json")
        with open(cfg_path, "w") as f:
            json.dump({"patterns": PATS, **extra}, f)
        assert cli.main(["run", "--config", cfg_path, "--input", data,
                         "--out-dir", os.path.join(runs, f"r{j}")]) == 0
    return runs


def test_cli_report(tmp_path):
    runs = _cli_runs(tmp_path)
    triggers = []
    for j in range(2):
        with open(os.path.join(runs, f"r{j}", "run.json")) as f:
            triggers.append(json.load(f)["triggers"])
    assert triggers[0] == 0 and triggers[1] > 0
    dest = os.path.join(tmp_path, "summary.csv")
    assert cli.main(["report", "--in", runs, "--out", dest]) == 0
    with open(dest, newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["run"], r["pattern"], r["strategy"], r["triggers"])
            for r in rows] == [
        ("r0", "P1", "none", "0"), ("r0", "P2", "none", "0"),
        ("r1", "P1", "random-input", str(triggers[1])),
        ("r1", "P2", "random-input", str(triggers[1]))]
    assert list(rows[0]) == ["run", "pattern", "recall", "cms", "latency_ms",
                             "strategy", "triggers"]


@pytest.mark.parametrize("case, names", [
    ("no-dir", "missing: no such directory"),
    ("bad-json", "r0/run.json: not a run manifest"),
    ("not-a-manifest", "r0/run.json: not a run manifest"),
    ("no-metrics", "r1/metrics.csv")])
def test_report_bad_input_is_a_usage_error(tmp_path, capsys, case, names):
    """``matchshed report`` reports a missing ``--in`` directory, a
    malformed ``run.json`` and a run without ``metrics.csv`` through its
    parser, naming the path, and writes no summary."""
    runs = os.path.join(tmp_path, "missing")
    if case != "no-dir":
        runs = _cli_runs(tmp_path)
    if case == "bad-json":
        with open(os.path.join(runs, "r0", "run.json"), "w") as f:
            f.write("{not json")
    elif case == "not-a-manifest":
        with open(os.path.join(runs, "r0", "run.json"), "w") as f:
            f.write("[]")
    elif case == "no-metrics":
        os.remove(os.path.join(runs, "r1", "metrics.csv"))
    dest = os.path.join(tmp_path, "summary.csv")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["report", "--in", runs, "--out", dest])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert names in err and "Traceback" not in err
    assert not os.path.exists(dest)
