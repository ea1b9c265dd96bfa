"""Run orchestration: wire the plan, engine, sketch, clusters and selector
together, apply a reduction strategy under overload, and report metrics.

The per-element loop is: expire windows, check the overload trigger,
reduce state if triggered (per the configured strategy), step the engine
and update the latency monitor, with the cyclic garbage collector paused
(``engine.collector_paused``): no object of a run forms a reference
cycle.  When the run reads the cost model, it also credits new matches
to the sketch and rolls the sketch epoch at window boundaries.  Only
guided selection and the ``sketch.csv`` artifact read it, so ``none``
and random runs without ``out_dir`` skip that upkeep; their output is
the same either way.  The clusters guided selection drains are read from
the state buffers (``psd.ClusterIndex``) and need no upkeep.

Latency can be measured by wall clock (no collector pause included) or
synthetically (``COST_UNIT_MS`` per work unit), which makes overload
experiments machine independent and runs byte-for-byte reproducible.

Recall is measured against the golden pass, exhaustive matching of the
same stream.  With synthetic latency, at least two CPUs and the fork
start method, ``run`` computes it in a forked worker process while the
parent runs the main loop, and collects the matches over a pipe after
the loop; otherwise it computes it in-process before the loop.
"""

from __future__ import annotations

import csv
import json
import os
import time
import traceback
from dataclasses import MISSING, asdict, dataclass, fields
from numbers import Integral

import numpy as np

from . import cost, psd, selector
from . import expr as ex
from .engine import (Engine, LatencyMonitor, collector_paused, golden_run,
                     measure)
from .model import ConsumptionPolicy, SelectionPolicy, WindowKind, is_number
from .parser import PatternSyntaxError, parse_pattern
from .plan import merge

STRATEGIES = ("guided", "random-input", "random-state", "none")
DEFAULT_BOUND_MS = 1000.0       # each pattern's latency bound without bounds
# synthetic latency of one work unit; another unit decides as the bounds
# scaled would, since the trigger and the budgets read only l_i / L_i
COST_UNIT_MS = 0.01
EXPIRE_EVERY = 16               # expiry cadence, in elements


@dataclass
class RunConfig:
    patterns: list                       # pattern grammar strings
    mode: str = "view"
    selection: str = "skip-any"
    consumption: str = "reuse"
    strategy: str = "none"
    drop_ratio: float = 0.5              # random shedders
    seed: int = 0
    bounds: list = None                  # ms; None = DEFAULT_BOUND_MS each
    cost_mode: str = "synthetic"         # or "wallclock"
    alpha: float = 0.2
    epoch_len: int = None                # None = max count window, or 0
                                         # (no decay) with time windows only
    select_every: int = 1                # min elements between reductions
    compute_golden: bool = True
    out_dir: str = None

    def __post_init__(self):
        # texts only: parsing them here would be timed as setup
        if (isinstance(self.patterns, str) or not self.patterns
                or not all(isinstance(t, str) for t in self.patterns)):
            raise ValueError("patterns must be a non-empty list of pattern "
                             "strings")
        if self.mode not in ("view", "separate"):
            raise ValueError(f"unknown mode {self.mode!r}")
        # lists, not sets: an unhashable value is unknown, not a TypeError
        if self.selection not in [p.value for p in SelectionPolicy]:
            raise ValueError(f"unknown selection {self.selection!r}")
        if self.consumption not in [p.value for p in ConsumptionPolicy]:
            raise ValueError(f"unknown consumption {self.consumption!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (is_number(self.seed, Integral) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")
        for knob in ("drop_ratio", "alpha"):
            v = getattr(self, knob)
            if not (is_number(v) and 0.0 <= v <= 1.0):
                raise ValueError(f"{knob} must be a number in [0, 1]")
        if self.cost_mode not in ("synthetic", "wallclock"):
            raise ValueError(f"unknown cost mode {self.cost_mode!r}")
        if not (is_number(self.select_every, Integral)
                and self.select_every >= 1):
            raise ValueError("select_every must be an integer >= 1")
        if self.epoch_len is not None and not (
                is_number(self.epoch_len, Integral) and self.epoch_len >= 0):
            raise ValueError("epoch_len must be None or an integer >= 0")
        if not isinstance(self.compute_golden, bool):
            raise ValueError("compute_golden must be true or false")
        if self.bounds is not None and (
                not isinstance(self.bounds, (list, tuple))
                or len(self.bounds) != len(self.patterns)
                or not all(is_number(b) and b > 0 for b in self.bounds)):
            # `not b > 0` also rejects NaN, which would never trigger
            raise ValueError("bounds must give one positive latency bound "
                             "per pattern")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ValueError("out_dir must be a string or null")

    @classmethod
    def from_json(cls, path: str) -> "RunConfig":
        with open(path) as f:
            return cls(**keywords(cls, json.load(f), path,
                                  "a run configuration"))


def keywords(cls, raw, path: str, what: str) -> dict:
    """``raw``, JSON read from ``path``, as keyword arguments of the
    dataclass ``cls`` (``what`` in words); a non-object, an unknown key or
    a missing required one raises ``ValueError``."""
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: {what} is a JSON object")
    unknown = sorted(raw.keys() - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"{path}: unknown {cls.__name__} keys "
                         f"{', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in raw
               and f.default is f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{path}: missing {cls.__name__} keys "
                         f"{', '.join(missing)}")
    return raw


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
    state_work: dict = None              # state id -> work units, summed
    eval_faults: dict = None             # math faults of the run's plan

    def accounting_closes(self) -> bool:
        c = self.counters
        return (c["pms_created"] == c["pms_expired"] + c["pms_shed"]
                + c["pms_policy_dropped"] + c["live_at_end"])


def match_key(rec) -> tuple:
    """The element seqs of a match; a record binds its elements in
    arrival order, so they ascend."""
    return rec.seq_tuple()


def build_plan(config: RunConfig):
    """The config's patterns merged; the message of a ``PatternSyntaxError``
    or ``PlanError`` of a pattern begins with its name, ``P<i>``."""
    patterns = []
    for i, text in enumerate(config.patterns):
        try:
            patterns.append(parse_pattern(text, i))
        except PatternSyntaxError as e:
            e.args = (f"P{i + 1}: {e}",)
            raise
    return merge(patterns, mode=config.mode)


class MissingColumnError(ValueError):
    """A pattern reads an attribute that the input has no column for."""


def check_columns(plan, columns) -> None:
    """Raise ``MissingColumnError`` for the first attribute, by name, that
    a pattern of ``plan`` reads (``SAME`` and ``SUM`` included) and
    ``columns`` lacks."""
    reads = {x.attr for p in plan.patterns for x in ex.nodes(p.predicate)
             if type(x) in (ex.AttrRef, ex.SumAgg, ex.Same)}
    missing = sorted(reads.difference(columns))
    if missing:
        raise MissingColumnError(f"a pattern reads attribute "
                                 f"{missing[0]!r}, but the input has no "
                                 "such column")


def check_out_dir(path: str) -> None:
    """Raise ``ValueError``, naming ``path`` and the file in the way,
    unless ``os.makedirs(path)`` can succeed as far as the paths that
    exist show: the nearest of ``path`` and the directories above it
    that exists is a directory."""
    p = os.path.abspath(path)
    while not os.path.exists(p):
        p = os.path.dirname(p)
    if not os.path.isdir(p):
        raise ValueError(f"out directory {path}: {p} is not a directory")


def shed_random_state(engine: Engine, rng, ratio: float) -> int:
    """Discard a random fraction of live PMs; returns the count."""
    dropped = 0
    for rec in list(engine.plan.live_records()):
        if rng.random() < ratio:
            engine.plan.discard(rec)
            dropped += 1
    return dropped


def golden_matches(config: RunConfig, stream) -> dict:
    """The exhaustive reference for recall, ``{pid: [(last_seq,
    match_key)]}``, from a plan of its own at the run's expiry cadence."""
    gout = golden_run(stream, build_plan(config),
                      SelectionPolicy(config.selection),
                      ConsumptionPolicy(config.consumption), EXPIRE_EVERY)
    return {pid: [(r.last_seq, match_key(r)) for r in recs]
            for pid, recs in gout.items()}


def _worker_pays(config: RunConfig) -> bool:
    """Whether a forked golden worker can save time: synthetic latency
    (a concurrent process would inflate wall-clock latencies), at least
    two CPUs for this process, and the fork start method."""
    if config.cost_mode != "synthetic":
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2:
        return False
    import multiprocessing
    return "fork" in multiprocessing.get_all_start_methods()


def _golden_child(conn, config: RunConfig, stream):
    try:
        result = (True, golden_matches(config, stream))
    except Exception as e:
        # the traceback does not pickle; its text goes with the exception
        result = (False, (e, traceback.format_exc()))
    conn.send(result)
    conn.close()


class GoldenWorker:
    """The golden pass in a forked child process.  The fork hands the child
    the config and the materialised stream without pickling them; only
    the matches come back, over a one-way pipe.  The child runs only the
    pure-Python golden pass, no numpy, so no lock held by a parent thread
    that fork does not copy (numpy's BLAS pool among them) is waited on."""

    def __init__(self, config: RunConfig, stream: list):
        # imported here: runs without a golden pass never load it
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        self.conn, child_conn = ctx.Pipe(duplex=False)
        self.proc = ctx.Process(target=_golden_child,
                                args=(child_conn, config, stream),
                                daemon=True)
        self.proc.start()
        # the parent keeps only the reading end, so recv sees EOF when
        # the child dies without a result
        child_conn.close()

    def result(self) -> dict:
        """Wait for the matches; re-raises the child's exception."""
        try:
            # recv before join: a result larger than the pipe buffer
            # would otherwise block the child's send forever
            ok, value = self.conn.recv()
        except EOFError:
            self.proc.join()
            raise RuntimeError(f"golden worker exited with code "
                               f"{self.proc.exitcode} without a result") \
                from None
        self.proc.join()
        if not ok:
            exc, tb = value
            raise exc from RuntimeError(f"in the golden worker:\n{tb}")
        return value

    def stop(self):
        """End the child if it still runs; idempotent."""
        if self.proc.exitcode is None:
            self.proc.terminate()
        self.proc.join()
        self.conn.close()


def run(config: RunConfig, stream, columns=None) -> Metrics:
    """Run ``config`` over ``stream``.  With ``columns``, the attribute
    names every element carries (a CSV header), an attribute a pattern
    reads and ``columns`` lacks is a ``MissingColumnError`` before the
    run, even where no guard reading it would run.  An ``out_dir`` that
    cannot be made (``check_out_dir``) is a ``ValueError`` before the
    plan is built."""
    if config.out_dir:
        check_out_dir(config.out_dir)
    plan = build_plan(config)
    if columns is not None:
        check_columns(plan, columns)
    stream = list(stream)
    golden = worker = None
    if config.compute_golden and config.strategy != "none":
        if _worker_pays(config):
            worker = GoldenWorker(config, stream)
        else:
            golden = golden_matches(config, stream)
    try:
        m, sketch = _main_loop(config, plan, stream)
        if worker is not None:
            golden = worker.result()
    finally:
        if worker is not None:
            worker.stop()
    if golden is not None:
        m.golden_matches = golden
        m.recall = [recall(golden[i], m.matches[i]) for i in range(m.n)]
    if config.out_dir:
        write_artifacts(config, plan, sketch, m)
    return m


_NO_CMS = {}        # cm_of of a step that completed no match; never written


def _main_loop(config: RunConfig, plan, stream: list):
    """Expire, reduce, step and measure each element of ``stream`` on
    ``plan``, new from ``build_plan(config)``; returns the Metrics without
    recall and the sketch."""
    sel = SelectionPolicy(config.selection)
    cons = ConsumptionPolicy(config.consumption)
    n = plan.n

    index = psd.assess(plan)
    sketch = cost.Sketch(plan)
    engine = Engine(plan, sel, cons)
    monitor = LatencyMonitor(n, alpha=config.alpha)
    bounds = (list(config.bounds) if config.bounds is not None
              else [DEFAULT_BOUND_MS] * n)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 1]))

    epoch_len = config.epoch_len
    if epoch_len is None:
        count_ws = [int(p.window.size) for p in plan.patterns
                    if p.window.kind is WindowKind.COUNT]
        epoch_len = max(count_ws) if count_ws else 0

    strategy = config.strategy
    # the cost model is read by guided selection and by sketch.csv; other
    # runs skip its upkeep: sketch credits and decay
    costed = strategy == "guided" or bool(config.out_dir)
    next_epoch = epoch_len if epoch_len and costed else None
    shedding = strategy != "none"
    drop_ratio = config.drop_ratio
    select_every = config.select_every
    synthetic = config.cost_mode == "synthetic"
    perf_counter = time.perf_counter

    matches = {p.id: [] for p in plan.patterns}
    audits = []
    triggers = 0
    elapsed_hist = []
    next_expire = 0
    last_select = -select_every
    wall_start = perf_counter()

    with collector_paused():
        for d in stream:
            seq = d.seq_index
            # extension-time window checks keep match semantics exact, so
            # expiry runs periodically; its cadence sets when expired records
            # stop counting as alive, and so the work units
            if seq >= next_expire:
                engine.expire(seq, d.timestamp)
                next_expire = seq + EXPIRE_EVERY

            if shedding:
                b_ol = selector.trigger(monitor, bounds)
                if b_ol:
                    triggers += 1
                    # state reductions are rate limited; input shedding is
                    # a per-element decision by nature
                    reduce_now = seq - last_select >= select_every
                    if strategy == "guided" and reduce_now:
                        last_select = seq
                        # unless the periodic expiry ran at this element:
                        # with the same now, a second call changes nothing
                        if next_expire != seq + EXPIRE_EVERY:
                            engine.expire(seq, d.timestamp)
                        budget_map = selector.budgets(index, monitor, bounds)
                        audit = selector.select(index, b_ol, budget_map,
                                                now_ts=d.timestamp)
                        audits.append(audit)
                        engine.counters.pms_shed += audit.discarded
                    elif strategy == "random-state" and reduce_now:
                        last_select = seq
                        engine.counters.pms_shed += shed_random_state(
                            engine, rng, drop_ratio)
                    elif strategy == "random-input":
                        if rng.random() < drop_ratio:
                            continue

            if synthetic:
                res = engine.step(d)
                elapsed = COST_UNIT_MS * res.units
            else:
                t0 = perf_counter()
                res = engine.step(d)
                elapsed = (perf_counter() - t0) * 1000.0
            elapsed_hist.append(elapsed)
            measure(monitor, elapsed, res.work, plan)

            complete = res.complete
            if complete:
                for (pid, rec), key in zip(complete, res.match_keys):
                    matches[pid].append((seq, key))
            if costed:
                cm_of = _NO_CMS
                if complete:
                    cm_of = {}
                    for pid, rec in complete:
                        cm_of.setdefault(id(rec), []).append(pid)
                for rec in res.new_pms:
                    cost.sketch_update(sketch, rec,
                                       cm_pids=cm_of.get(id(rec), ()))

            if next_epoch is not None and seq >= next_epoch:
                cost.decay(sketch, 0.5)
                next_epoch += epoch_len

    engine.expire(len(stream), stream[-1].timestamp if stream else 0.0)
    wall = perf_counter() - wall_start
    counters = {**asdict(engine.counters),
                "live_at_end": engine.live_pm_count()}

    pcts = {}
    if elapsed_hist:
        arr = np.sort(np.asarray(elapsed_hist))
        for p in (50, 95, 99):
            pcts[f"p{p}"] = float(arr[min(len(arr) - 1,
                                          int(len(arr) * p / 100))])

    m = Metrics(n=n, matches=matches,
                throughput=len(stream) / wall if wall > 0 else 0.0,
                latency_ms=list(monitor.latency_ms),
                latency_mean=[s / max(1, len(stream))
                              for s in monitor.lat_sum],
                latency_pcts=pcts,
                triggers=triggers, elements=len(stream), counters=counters,
                audits=audits, state_work=dict(sorted(
                    monitor.state_work.items())),
                eval_faults=asdict(plan.diag))
    return m, sketch


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
        "state_work": m.state_work,
        "eval_faults": m.eval_faults,
    }
    with open(os.path.join(out, "run.json"), "w") as f:
        json.dump(manifest, f, indent=2, default=str)
