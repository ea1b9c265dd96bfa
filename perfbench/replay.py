"""Benchmark workloads and one replay of a workload through matchshed's
public entry points (``runner.run`` or ``matchshed run`` via
``cli.main``).

Every workload is calibrated the way the paper sets its latency limit:
a ``none`` run on the same stream and code gives each pattern's mean
latency, the bounds are half of it (2x overload), and that run's
matches are the exhaustive reference for recall.  Latency is
``cost_mode="synthetic"`` throughout, so matches, recall and the
bound-miss share are deterministic for a seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
from dataclasses import dataclass

from matchshed import cli, psd, runner
from matchshed import workloads as mw
from matchshed.runner import RunConfig

import checks

DS1_PATTERNS = tuple(mw.templates(window=500)[k] for k in ("P3", "P4"))
DS2_PATTERNS = tuple(
    mw.templates(window=200)[k].replace("WITHIN 200", "WITHIN 200 ms")
    for k in ("P1", "P2", "P5", "P6"))

OVERLOAD = 2.0      # bounds = none-run latency_mean / OVERLOAD


@dataclass(frozen=True)
class Workload:
    """Why each workload is in the suite: README.md and BENCHMARK.json."""
    name: str
    dataset: str        # "ds1" or "ds2"
    size: int           # stream length in elements
    patterns: tuple
    strategy: str
    via_cli: bool       # `matchshed run` on a CSV, golden pass and artifacts


WORKLOADS = {w.name: w for w in (
    Workload("ds1-none", "ds1", 30_000, DS1_PATTERNS, "none", False),
    Workload("ds1-guided", "ds1", 60_000, DS1_PATTERNS, "guided", False),
    Workload("ds2-cli-time", "ds2", 10_000, DS2_PATTERNS, "guided", True),
)}


def make_stream(w: Workload, seed: int) -> list:
    gen = mw.gen_ds1 if w.dataset == "ds1" else mw.gen_ds2
    return gen(w.size, seed)


@dataclass
class Prepared:
    """A workload's inputs for one seed, calibrated and written out."""
    workload: Workload
    seed: int
    stream: list
    bounds: list
    reference: dict     # pid -> [(emit_seq, match_key)] of the none run
    workdir: str

    @property
    def csv_path(self):
        return os.path.join(self.workdir, "stream.csv")

    @property
    def config_path(self):
        return os.path.join(self.workdir, "config.json")

    @property
    def out_dir(self):
        return os.path.join(self.workdir, "out")

    def config(self) -> RunConfig:
        """The RunConfig a library replay uses (the CLI reads the same
        fields from ``config_path``, with the golden pass left on)."""
        return RunConfig(patterns=list(self.workload.patterns),
                         strategy=self.workload.strategy, seed=self.seed,
                         bounds=list(self.bounds), compute_golden=False)


def prepare(w: Workload, seed: int, workdir: str) -> Prepared:
    os.makedirs(workdir, exist_ok=True)
    stream = make_stream(w, seed)
    base = runner.run(RunConfig(patterns=list(w.patterns), strategy="none",
                                seed=seed), stream)
    bounds = [x / OVERLOAD for x in base.latency_mean]
    prep = Prepared(w, seed, stream, bounds, base.matches, workdir)
    write_inputs(prep)
    return prep


def write_inputs(prep: Prepared):
    """The CSV and config a CLI user would hand to ``matchshed run``."""
    if prep.workload.via_cli:
        mw.write_csv(prep.stream, prep.csv_path)
        with open(prep.config_path, "w") as f:
            json.dump({"patterns": list(prep.workload.patterns),
                       "strategy": prep.workload.strategy,
                       "bounds": prep.bounds, "seed": prep.seed}, f)


@dataclass
class Outcome:
    matches: dict       # pid -> [(emit_seq, match_key)]
    counters: dict
    recall: list        # the program's own per-pattern recall, or None
    problems: list      # malformed-artifact findings
    wall_s: float       # the entry-point call alone


def replay(prep: Prepared, entry=None) -> Outcome:
    """One replay of the workload.  ``entry`` replaces the entry point
    (``runner.run`` or ``cli.main``), e.g. by a traced wrapper of it."""
    if prep.workload.via_cli:
        main = entry or cli.main
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = main(["run", "--config", prep.config_path,
                       "--input", prep.csv_path, "--out-dir", prep.out_dir])
            wall = time.perf_counter() - t0
        art = checks.read_artifacts(prep.out_dir, len(prep.workload.patterns),
                                    prep.workload.size)
        if rc != 0:
            art.problems.append(f"matchshed run exited {rc}")
        return Outcome(art.matches, art.counters, art.recall, art.problems,
                       wall)
    t0 = time.perf_counter()
    m = (entry or runner.run)(prep.config(), prep.stream)
    wall = time.perf_counter() - t0
    return Outcome(m.matches, m.counters, None, [], wall)


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` attributes for the duration, then put
    the originals back."""
    saved = [(owner, attr, getattr(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Probe:
    """What an untraced measured replay records: a timestamp at each call
    into ``runner.measure`` (one per processed element, after its step),
    whether any pattern's EWMA latency is then at or above its bound, and
    the time spent in the set-up calls so it can be left out of the wall
    time."""

    def __init__(self, bounds, clock=time.perf_counter):
        self.bounds = list(bounds)
        self.clock = clock
        self.stamps = []
        self.misses = 0
        self.setup_s = 0.0

    def patches(self) -> list:
        stamps, bounds, clock = self.stamps, self.bounds, self.clock
        measure = runner.measure

        def timed_measure(monitor, elapsed_ms, work_by_state, plan):
            stamps.append(clock())
            measure(monitor, elapsed_ms, work_by_state, plan)
            for lat, bound in zip(monitor.latency_ms, bounds):
                if lat >= bound:
                    self.misses += 1
                    break

        def setup_timer(fn):
            def timed(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.setup_s += clock() - t0
            return timed

        return [(runner, "measure", timed_measure),
                (runner, "build_plan", setup_timer(runner.build_plan)),
                (psd, "assess", setup_timer(psd.assess)),
                (mw, "load_csv", setup_timer(mw.load_csv))]

    def intervals_us(self) -> list:
        s = self.stamps
        return [(b - a) * 1e6 for a, b in zip(s, s[1:])]


def setup_once(prep: Prepared) -> float:
    """Seconds for the work a replay does before its first element:
    CSV ingestion (CLI workloads), ``runner.build_plan``, ``psd.assess``."""
    t0 = time.perf_counter()
    if prep.workload.via_cli:
        mw.load_csv(prep.csv_path)
    psd.assess(runner.build_plan(prep.config()))
    return time.perf_counter() - t0
