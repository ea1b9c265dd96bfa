"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Small versions of the real workloads keep this under a minute.
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import pytest  # noqa: E402

from matchshed import engine as me  # noqa: E402
from matchshed.model import pattern_bit  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import replay  # noqa: E402
import speed  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SMALL = {"ds1-none": 1500, "ds1-guided": 1500, "ds2-cli-time": 800}


@pytest.fixture(scope="module", params=sorted(replay.WORKLOADS))
def prep(request, tmp_path_factory):
    w = dataclasses.replace(replay.WORKLOADS[request.param],
                            size=SMALL[request.param])
    return replay.prepare(w, 3, str(tmp_path_factory.mktemp(w.name)))


def artifact_bytes(prep):
    if not prep.workload.via_cli:
        return None
    return {nm: open(os.path.join(prep.out_dir, nm), "rb").read()
            for nm in ("matches.csv", "metrics.csv", "audit.csv")}


def test_wrapping_leaves_output_byte_identical(prep):
    plain = replay.replay(prep)
    plain_files = artifact_bytes(prep)

    probe = replay.Probe(prep.bounds)
    with replay.patched(probe.patches()):
        probed = replay.replay(prep)
    assert repr(probed.matches) == repr(plain.matches)
    assert artifact_bytes(prep) == plain_files

    lt = layers.LayerTrace(len(prep.workload.patterns))
    step = me.Engine.step
    with replay.patched(lt.patches()):
        assert me.Engine.step is not step
        traced = replay.replay(prep, entry=lt.entry(prep.workload.via_cli))
    assert me.Engine.step is step
    assert repr(traced.matches) == repr(plain.matches)
    assert artifact_bytes(prep) == plain_files
    assert traced.counters == plain.counters
    assert not checks.output_problems(prep, plain)


def test_recall_and_bound_miss_share_repeat(prep):
    seen = set()
    for _ in range(2):
        probe = replay.Probe(prep.bounds)
        with replay.patched(probe.patches()):
            out = replay.replay(prep)
        seen.add((checks.mean_recall(prep.reference, out.matches),
                  probe.misses / len(probe.stamps), len(probe.stamps)))
    assert len(seen) == 1
    again = replay.prepare(prep.workload, prep.seed, prep.workdir)
    assert again.bounds == prep.bounds
    assert again.reference == prep.reference


def test_none_workload_recall_is_one(tmp_path):
    w = dataclasses.replace(replay.WORKLOADS["ds1-none"], size=1500)
    prep = replay.prepare(w, 4, str(tmp_path))
    out = replay.replay(prep)
    assert out.matches == checks.golden_matches(prep)
    assert checks.mean_recall(prep.reference, out.matches) == 1.0


def test_layer_counts_repeat_and_account_for_wall(prep):
    runs = []
    for _ in range(2):
        lt = layers.LayerTrace(len(prep.workload.patterns))
        with replay.patched(lt.patches()):
            out = replay.replay(prep, entry=lt.entry(prep.workload.via_cli))
        m = lt.metrics(layers.prefixes(prep.reference))
        assert 0.99 < lt.root_wall_s() / out.wall_s <= 1.0
        # plan.build_s is build_plan's whole span: parse and merge in it
        accounted = sum(m[k] for k in layers.SELF_TIMES) + m["plan.build_s"]
        assert accounted == pytest.approx(lt.root_wall_s(), rel=1e-9)
        runs.append({k: v for k, v in m.items() if k not in layers.SELF_TIMES
                     and k != "plan.build_s"})
    assert runs[0] == runs[1]
    assert runs[0]["engine.step.calls"] >= prep.workload.size
    assert runs[0]["engine.cms_emitted"] == sum(
        len(v) for v in out.matches.values())


def test_self_time_of_hand_built_tree():
    spans = [("root", 0.0, 10.0, -1),
             ("a", 1.0, 4.0, 0),
             ("c", 2.0, 3.0, 1),
             ("b", 5.0, 7.0, 0),
             ("b", 8.0, 11.0, 0),     # runs past its parent: clipped
             ("other", 20.0, 21.0, -1)]
    st = self_times(spans)
    assert st["root"] == {"calls": 1, "total_s": 10.0, "self_s": 3.0}
    assert st["a"]["self_s"] == 2.0
    assert st["c"]["self_s"] == 1.0
    assert st["b"] == {"calls": 2, "total_s": 5.0, "self_s": 5.0}
    assert st["other"]["self_s"] == 1.0


def test_tracer_links_nested_calls():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(lambda x: x + 1, "inner")
    outer = t.wrap(lambda x: inner(x) * inner(x), "outer")
    assert outer(2) == 9
    assert t.spans() == [("outer", 0.0, 5.0, -1), ("inner", 1.0, 2.0, 0),
                         ("inner", 3.0, 4.0, 0)]
    st = self_times(t.spans())
    assert st["outer"]["self_s"] == 3.0 and st["inner"]["self_s"] == 2.0

    failing = t.wrap(lambda: 1 / 0, "fails")
    with pytest.raises(ZeroDivisionError):
        failing()
    assert t.spans()[-1][0] == "fails" and t._stack == [-1]


def test_shed_productive_share():
    ref = {0: [(4, (1, 2, 4))], 1: [(9, (1, 3, 9))]}
    pref = layers.prefixes(ref)
    assert pref[0] == {(1,), (1, 2), (1, 2, 4)}
    p1, both = pattern_bit(0, 2), pattern_bit(0, 2) | pattern_bit(1, 2)
    shed = [(p1, (1, 2)),       # prefix of a P1 match
            (p1, (1, 3)),       # a prefix only for P2, which it left
            (both, (1, 3)),     # serves P2 as well
            (both, (2, 4))]     # prefix of nothing
    assert layers.productive_share(shed, pref, 2) == 0.5
    assert layers.productive_share([], pref, 2) == 0.0


def test_gate_flags_bad_output(prep):
    out = replay.replay(prep)
    assert not checks.output_problems(prep, out)
    bogus = dict(out.matches)
    bogus[0] = list(bogus[0]) + [(10**9, (10**9,))]
    bad = dataclasses.replace(out, matches=bogus)
    assert any("not in the reference" in p
               for p in checks.output_problems(prep, bad))
    leaky = dataclasses.replace(out, counters=dict(out.counters,
                                                   pms_expired=-1))
    assert any("accounting" in p for p in checks.output_problems(prep, leaky))
    assert checks.digest(bogus) != checks.digest(out.matches)


def test_malformed_artifacts_are_reported(tmp_path):
    w = dataclasses.replace(replay.WORKLOADS["ds2-cli-time"], size=600)
    prep = replay.prepare(w, 5, str(tmp_path))
    good = replay.replay(prep)
    assert not good.problems
    path = os.path.join(prep.out_dir, "matches.csv")
    with open(path, "a") as f:
        f.write("P1,7,9|3\n")
    art = checks.read_artifacts(prep.out_dir, len(w.patterns), w.size)
    assert any("inconsistent row" in p for p in art.problems)
    os.remove(os.path.join(prep.out_dir, "run.json"))
    art = checks.read_artifacts(prep.out_dir, len(w.patterns), w.size)
    assert any("run.json" in p for p in art.problems)


def test_reference_seconds_scale():
    ticks = iter([0.0, 0.2, 10.0, 10.05, 20.0, 20.1])
    ref = speed.Speed(clock=lambda: next(ticks))
    # task took 0.2 s before the stretch and 0.05 s after it
    assert ref.scale() == pytest.approx(speed.REF_S / 0.125)
    assert ref.scale() == pytest.approx(speed.REF_S / 0.075)
    assert ref.samples == pytest.approx([0.2, 0.05, 0.1])
