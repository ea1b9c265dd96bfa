"""Layered matchshed benchmark.

    python3 perfbench/run.py --workload ds1-none --seed 0 --seconds 20 \
        --trace 0

Replays one seeded workload (see ``replay.WORKLOADS``) through matchshed's
public entry points, single process and single thread, closed loop: the
next element is processed when the previous one is done.  ``--trace 0``
times untraced replays for ``--seconds`` and reports the end-to-end
metrics; ``--trace 1`` alternates untraced replays with replays in which
every layer is wrapped in spans, and reports the per-layer metrics.  Either way every replay's output goes through the correctness
gate in ``checks``.  The metric names and units come from BENCHMARK.json;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when any
check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "matchshed", "__init__.py")):
    # measure the checkout's own source, never an installed copy
    sys.exit(f"perfbench: no matchshed source under {SRC}")
sys.path.insert(0, SRC)

import checks  # noqa: E402
import layers  # noqa: E402
import replay  # noqa: E402
import speed  # noqa: E402

MIN_REPS = 3        # timed replays per run, whatever --seconds says
MIN_TRACED = 2      # traced replays per run: enough to compare counts
SETUP_PER_REP = 5   # set-up repetitions after each timed replay
WORK_DIR = ".perfbench_work"


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (the rule runner.run uses)."""
    s = sorted(values)
    return s[min(len(s) - 1, int(len(s) * p / 100))]


class Gate:
    """Correctness findings, and the element count they put at fault."""

    def __init__(self, prep):
        self.prep = prep
        self.problems = []
        self.digests = set()
        self.deterministic = set()
        self.attempted = 0
        self.failed = 0

    def check(self, outcome, timed=True, deterministic=None):
        """Check one replay; ``deterministic`` holds values that must be
        identical on every replay of the seed that passes them."""
        found = checks.output_problems(self.prep, outcome)
        self.digests.add(checks.digest(outcome.matches))
        if deterministic is not None:
            self.deterministic.add(deterministic)
        n = self.prep.workload.size
        if timed:
            self.attempted += n
            self.failed += n if found else 0
        self.problems += found

    def finish(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append(f"match digest differs across replays "
                                 f"({len(self.digests)} distinct)")
        if len(self.deterministic) > 1:
            self.problems.append("bound-miss share differs across replays")
        if self.problems:
            self.failed = self.attempted
        return not self.problems


def timed_reps(seconds: float, rep, min_reps=MIN_REPS):
    """Call ``rep()`` at least ``min_reps`` times and until ``seconds``
    pass."""
    deadline = time.perf_counter() + seconds
    out = []
    while len(out) < min_reps or time.perf_counter() < deadline:
        out.append(rep())
    return out


def measured(prep, gate, seconds) -> dict:
    """End-to-end metrics of untraced replays: the median over replays of
    each replay's figure, in reference seconds (see ``speed``).  Set-up
    is timed between replays, so that it samples the same stretch of
    machine time as they do."""
    w = prep.workload
    ref = speed.Speed()
    eps, p50, p99, setup, raw_eps = [], [], [], [], []
    samples = 0

    def rep():
        nonlocal samples
        probe = replay.Probe(prep.bounds)
        with replay.patched(probe.patches()):
            out = replay.replay(prep)
        gate.check(out, deterministic=probe.misses / len(probe.stamps))
        setup_raw = [replay.setup_once(prep) for _ in range(SETUP_PER_REP)]
        k = ref.scale()
        wall = out.wall_s - probe.setup_s
        raw_eps.append(w.size / wall)
        eps.append(w.size / (wall * k))
        intervals = probe.intervals_us()
        samples += len(intervals)
        p50.append(percentile(intervals, 50) * k)
        p99.append(percentile(intervals, 99) * k)
        setup.extend(s * k for s in setup_raw)
        return probe.misses / len(probe.stamps)

    shares = timed_reps(seconds, rep)
    med = statistics.median
    print(f"{w.name} seed={prep.seed} unscaled throughput_eps = "
          f"{med(raw_eps)!r} elements/s; reference task "
          f"{med(ref.samples)!r} s (n={len(ref.samples)})")
    return {
        "throughput_eps": (med(eps), len(eps)),
        "elem_p50_us": (med(p50), samples),
        "elem_p99_us": (med(p99), samples),
        "setup_s": (med(setup), len(setup)),
        "bound_miss_share": (shares[0], len(shares)),
    }


# per-layer figures that are measured rather than counted
MEASURED = set(layers.SELF_TIMES) | {"plan.build_s", "trace.accounted_share",
                                     "trace.traced_eps"}


def traced(prep, gate, seconds) -> dict:
    """Per-layer metrics: medians over traced replays, beside untraced
    replays of the same workload for the tracing overhead."""
    w = prep.workload
    prefs = layers.prefixes(prep.reference)
    plain, runs, last = [], [], []

    def untraced_rep():
        out = replay.replay(prep)
        gate.check(out)
        plain.append(w.size / out.wall_s)

    def traced_rep():
        lt = layers.LayerTrace(len(w.patterns))
        with replay.patched(lt.patches()):
            out = replay.replay(prep, entry=lt.entry(w.via_cli))
        gate.check(out)
        m = lt.metrics(prefs)
        m["recall"] = checks.mean_recall(prep.reference, out.matches)
        m["trace.accounted_share"] = (sum(m[k] for k in layers.SELF_TIMES)
                                      + m["plan.build_s"]) / out.wall_s
        m["trace.traced_eps"] = w.size / out.wall_s
        runs.append(m)
        last[:] = [lt]

    # alternate, so drift in machine speed falls on both sides alike
    timed_reps(seconds, lambda: (untraced_rep(), traced_rep()), MIN_TRACED)
    last[0].tracer.write_tsv(os.path.join(prep.workdir, "spans.tsv"))
    out = {}
    for name in runs[0]:
        values = [m[name] for m in runs]
        if name in MEASURED:
            out[name] = (statistics.median(values), len(runs))
            continue
        if len(set(values)) > 1:
            gate.problems.append(f"{name} differs across traced replays")
        out[name] = (values[0], len(runs))
    untraced_eps = statistics.median(plain)
    out["trace.untraced_eps"] = (untraced_eps, len(plain))
    out["trace.overhead_ratio"] = (
        untraced_eps / out["trace.traced_eps"][0], len(runs))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(replay.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    w = replay.WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, WORK_DIR, f"{w.name}-{args.seed}")
    prep = replay.prepare(w, args.seed, workdir)
    gate = Gate(prep)

    # warm-up: the first replay in a process runs markedly slower.  The
    # calibration run was a none replay, so a none workload has had it.
    if w.strategy == "none":
        gate.digests.add(checks.digest(prep.reference))
        if prep.reference != checks.golden_matches(prep):
            gate.problems.append("none-strategy matches differ from "
                                 "golden_run")
    else:
        gate.check(replay.replay(prep), timed=False)

    if args.trace:
        results = traced(prep, gate, args.seconds)
    else:
        results = measured(prep, gate, args.seconds)
        # this process made every replay, the calibration and golden runs
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results["peak_rss_mb"] = (rss_kib / 1024.0, 1)
    correct = gate.finish()

    metrics = {}
    for m in wanted:
        value, samples = results[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{w.name} seed={args.seed} {m['name']} = {value!r} "
              f"{m['unit']} (n={samples})")
    for p in gate.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
