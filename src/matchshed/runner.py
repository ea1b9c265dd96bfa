"""Run orchestration: wire the plan, engine, sketch, clusters and selector
together, apply a reduction strategy under overload, and report metrics.

The per-element loop is: expire windows, check the overload trigger,
reduce state if triggered (per the configured strategy), step the engine,
feed new matches to the sketch and cluster index, update the latency
monitor, and roll the sketch epoch at window boundaries.

Latency can be measured by wall clock or synthetically (elapsed =
cost_unit * work units), which makes overload experiments machine
independent and runs byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import cost, psd, selector
from .engine import Engine, LatencyMonitor, golden_run, measure
from .model import ConsumptionPolicy, SelectionPolicy, WindowKind
from .parser import parse_pattern
from .plan import merge

STRATEGIES = ("guided", "random-input", "random-state", "none")


@dataclass
class RunConfig:
    patterns: list                       # pattern grammar strings
    mode: str = "view"
    selection: str = "skip-any"
    consumption: str = "reuse"
    strategy: str = "none"
    drop_ratio: float = 0.5              # random shedders
    seed: int = 0
    bounds: list = None                  # latency bounds; None = per-pattern
    cost_mode: str = "synthetic"         # or "wallclock"
    cost_unit: float = 0.01              # ms per work unit (synthetic)
    alpha: float = 0.2
    theta: str = "constant"              # or "length"
    epoch_len: int = None                # None = max count window
    expire_every: int = 16               # expiry cadence, in elements
    select_every: int = 1                # min elements between reductions
    compute_golden: bool = True
    out_dir: str = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not 0.0 <= self.drop_ratio <= 1.0:
            raise ValueError("drop_ratio must be in [0, 1]")
        if self.cost_mode not in ("synthetic", "wallclock"):
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as f:
            return cls(**json.load(f))


@dataclass
class Metrics:
    n: int
    recall: list = None                  # per pattern, None without golden
    matches: dict = None                 # pid -> [(emit_seq, match_key)]
    golden_matches: dict = None
    throughput: float = 0.0
    latency_ms: list = None              # final EWMA per pattern
    latency_mean: list = None            # EWMA averaged over the run
    latency_pcts: dict = None            # p50/p95/p99 of per-element cost
    triggers: int = 0
    elements: int = 0
    counters: dict = None
    audits: list = None

    def accounting_closes(self) -> bool:
        c = self.counters
        return (c["pms_created"] == c["pms_expired"] + c["pms_shed"]
                + c["pms_policy_dropped"] + c["live_at_end"])


def match_key(rec) -> tuple:
    return tuple(sorted(rec.seq_tuple()))


def _theta_fn(name: str):
    return cost.theta_length if name == "length" else cost.theta_constant


def build_plan(config: RunConfig):
    patterns = [parse_pattern(t, pattern_id=i, name=f"P{i + 1}")
                for i, t in enumerate(config.patterns)]
    return merge(patterns, mode=config.mode)


def shed_random_input(rng, ratio: float) -> bool:
    """Decide whether to drop the incoming element."""
    return rng.random() < ratio


def shed_random_state(engine: Engine, rng, ratio: float) -> int:
    """Tombstone a random fraction of live PMs; returns the count."""
    dropped = 0
    for rec in list(engine.plan.live_records()):
        if rng.random() < ratio:
            engine.plan.discard(rec)
            dropped += 1
    return dropped


def run(config: RunConfig, stream) -> Metrics:
    stream = list(stream)
    plan = build_plan(config)
    sel = SelectionPolicy(config.selection)
    cons = ConsumptionPolicy(config.consumption)
    n = plan.n

    golden = None
    if config.compute_golden and config.strategy != "none":
        gplan = build_plan(config)
        gout = golden_run(stream, gplan, sel, cons)
        golden = {pid: [(r.last_seq, match_key(r)) for r in recs]
                  for pid, recs in gout.items()}

    index = psd.assess(plan)
    sketch = cost.Sketch(plan)
    theta = _theta_fn(config.theta)
    engine = Engine(plan, sel, cons)
    monitor = LatencyMonitor(n, alpha=config.alpha)
    bounds = (list(config.bounds) if config.bounds is not None
              else [p.latency_bound_ms for p in plan.patterns])
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    epoch_len = config.epoch_len
    if epoch_len is None:
        count_ws = [int(p.window.size) for p in plan.patterns
                    if p.window.kind is WindowKind.COUNT]
        epoch_len = max(count_ws) if count_ws else 0
    next_epoch = epoch_len if epoch_len else None

    matches = {p.id: [] for p in plan.patterns}
    audits = []
    triggers = 0
    elapsed_hist = []
    lat_sum = [0.0] * n
    next_expire = 0
    last_select = -config.select_every
    wall_start = time.perf_counter()

    for d in stream:
        # extension-time window checks keep match semantics exact, so
        # expiry runs periodically; its cadence sets when expired records
        # stop counting as alive, and so the work units
        if d.seq_index >= next_expire:
            engine.expire(d.seq_index, d.timestamp)
            next_expire = d.seq_index + config.expire_every

        if config.strategy != "none":
            b_ol = selector.trigger(monitor, bounds)
            if b_ol:
                triggers += 1
                # state reductions are rate limited; input shedding is a
                # per-element decision by nature
                reduce_now = (d.seq_index - last_select
                              >= config.select_every)
                if config.strategy == "guided" and reduce_now:
                    last_select = d.seq_index
                    engine.expire(d.seq_index, d.timestamp)
                    budget_map = selector.budgets(index, sketch, monitor,
                                                  bounds, theta)
                    audit = selector.select(index, b_ol, budget_map, sketch,
                                            theta, now_ts=d.timestamp)
                    audits.append(audit)
                    engine.counters.pms_shed += audit.discarded
                elif config.strategy == "random-state" and reduce_now:
                    last_select = d.seq_index
                    engine.counters.pms_shed += shed_random_state(
                        engine, rng, config.drop_ratio)
                elif config.strategy == "random-input":
                    if shed_random_input(rng, config.drop_ratio):
                        continue

        t0 = time.perf_counter()
        res = engine.step(d)
        if config.cost_mode == "synthetic":
            elapsed = config.cost_unit * sum(res.work.values())
        else:
            elapsed = (time.perf_counter() - t0) * 1000.0
        elapsed_hist.append(elapsed)
        measure(monitor, elapsed, res.work, plan)
        for i in range(n):
            lat_sum[i] += monitor.latency_ms[i]

        cm_of = {}
        for pid, rec in res.complete:
            cm_of.setdefault(id(rec), (rec, []))[1].append(pid)
            matches[pid].append((d.seq_index, match_key(rec)))
        for rec in res.new_pms:
            index.insert(rec)
            cm_pids = cm_of.get(id(rec), (None, ()))[1]
            cost.sketch_update(sketch, rec, cm_pids=cm_pids)

        if next_epoch is not None and d.seq_index >= next_epoch:
            cost.decay(sketch, 0.5)
            next_epoch += epoch_len

    engine.expire(len(stream), stream[-1].timestamp if stream else 0.0)
    wall = time.perf_counter() - wall_start
    c = engine.counters
    counters = {
        "pms_created": c.pms_created,
        "pms_expired": c.pms_expired,
        "pms_policy_dropped": c.pms_policy_dropped,
        "pms_shed": c.pms_shed,
        "cms_emitted": c.cms_emitted,
        "live_at_end": engine.live_pm_count(),
    }

    recall_vec = None
    if golden is not None:
        recall_vec = [recall(golden[i], matches[i]) for i in range(n)]

    pcts = {}
    if elapsed_hist:
        arr = np.sort(np.asarray(elapsed_hist))
        for p in (50, 95, 99):
            pcts[f"p{p}"] = float(arr[min(len(arr) - 1,
                                          int(len(arr) * p / 100))])

    m = Metrics(n=n, recall=recall_vec, matches=matches,
                golden_matches=golden,
                throughput=len(stream) / wall if wall > 0 else 0.0,
                latency_ms=list(monitor.latency_ms),
                latency_mean=[s / max(1, len(stream)) for s in lat_sum],
                latency_pcts=pcts,
                triggers=triggers, elements=len(stream), counters=counters,
                audits=audits)
    if config.out_dir:
        write_artifacts(config, plan, sketch, m)
    return m


def recall(golden_list, reduced_list) -> float:
    """|golden ∩ reduced| / |golden| over order-insensitive match keys."""
    g = {k for _, k in golden_list}
    if not g:
        return 1.0
    r = {k for _, k in reduced_list}
    return len(g & r) / len(g)


def rolling_recall(golden_list, reduced_list, window: int,
                   total_len: int) -> list:
    """Recall per consecutive stream window of ``window`` elements,
    matches bucketed by golden emission position."""
    r = {k for _, k in reduced_list}
    out = []
    for lo in range(0, total_len, window):
        hi = lo + window
        g = {k for e, k in golden_list if lo <= e < hi}
        out.append(len(g & r) / len(g) if g else None)
    return out


def write_artifacts(config: RunConfig, plan, sketch, m: Metrics):
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "plan.txt"), "w") as f:
        f.write(plan.dump())
    cost.dump_csv(sketch, os.path.join(out, "sketch.csv"))
    with open(os.path.join(out, "matches.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pattern", "emit_seq", "elements"])
        for pid in sorted(m.matches):
            for emit_seq, key in m.matches[pid]:
                w.writerow([f"P{pid + 1}", emit_seq,
                            "|".join(map(str, key))])
    with open(os.path.join(out, "metrics.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["pattern", "recall", "cms", "latency_ms"])
        for i in range(m.n):
            rec = "" if m.recall is None else repr(m.recall[i])
            w.writerow([f"P{i + 1}", rec, len(m.matches[i]),
                        repr(m.latency_ms[i])])
    with open(os.path.join(out, "audit.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["ts", "b_ol", "kept", "discarded", "spend_per_budget"])
        for a in m.audits:
            row = a.csv_row(m.n)
            w.writerow(row[:4] + [";".join(row[4:])])
    manifest = {
        "config": {k: v for k, v in vars(config).items()},
        "throughput": m.throughput,
        "latency_pcts": m.latency_pcts,
        "triggers": m.triggers,
        "elements": m.elements,
        "counters": m.counters,
    }
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump(manifest, f, indent=2, default=str)
