"""Correctness gate: what a replay's output must satisfy before its
timings count.

* every emitted match is in the exhaustive reference (no invented match);
* ``Metrics.accounting_closes()`` holds for the run's counters;
* the match digest is the same on every replay of one seed;
* on a ``none`` workload the matches equal ``golden_run`` on the stream;
* CLI artifacts (``matches.csv``, ``metrics.csv``, ``run.json``) parse,
  agree with each other, and report the recall the benchmark computes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, field

from matchshed import engine, runner
from matchshed.runner import Metrics

COUNTER_KEYS = ("pms_created", "pms_expired", "pms_policy_dropped",
                "pms_shed", "cms_emitted", "live_at_end")


def digest(matches: dict) -> str:
    """Stable hash of pattern id -> [(emit_seq, match_key)]."""
    h = hashlib.sha256()
    for pid in sorted(matches):
        h.update(repr((pid, list(matches[pid]))).encode())
    return h.hexdigest()


def mean_recall(reference: dict, matches: dict) -> float:
    """Mean over patterns of the share of reference matches emitted."""
    return sum(runner.recall(reference[pid], matches[pid])
               for pid in reference) / len(reference)


def outside_reference(reference: dict, matches: dict) -> int:
    """Emitted matches that the exhaustive run never produced."""
    bad = 0
    for pid, emitted in matches.items():
        ref = {k for _, k in reference[pid]}
        bad += sum(1 for _, k in emitted if k not in ref)
    return bad


def accounting_closes(counters: dict) -> bool:
    if any(k not in counters for k in COUNTER_KEYS):
        return False
    return Metrics(n=0, counters=counters).accounting_closes()


def golden_matches(prep) -> dict:
    """``golden_run`` on the workload's stream, in ``Metrics.matches``
    form."""
    cfg = prep.config()
    out = engine.golden_run(prep.stream, runner.build_plan(cfg))
    return {pid: [(r.last_seq, runner.match_key(r)) for r in recs]
            for pid, recs in out.items()}


def output_problems(prep, outcome) -> list:
    """Findings for one replay that do not need other replays."""
    problems = list(outcome.problems)
    bad = outside_reference(prep.reference, outcome.matches)
    if bad:
        problems.append(f"{bad} emitted matches are not in the reference")
    if not accounting_closes(outcome.counters):
        problems.append(f"PM accounting does not close: {outcome.counters}")
    if outcome.recall is not None:
        want = [runner.recall(prep.reference[pid], outcome.matches[pid])
                for pid in sorted(prep.reference)]
        if outcome.recall != want:
            problems.append(f"reported recall {outcome.recall} != "
                            f"recomputed {want}")
    return problems


# ------------------------------------------------------------ artifacts

@dataclass
class Artifacts:
    matches: dict
    recall: list
    counters: dict
    problems: list = field(default_factory=list)


def _read_csv(path, header, problems):
    try:
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
    except OSError as e:
        problems.append(f"cannot read {path}: {e}")
        return []
    if not rows or rows[0] != header:
        problems.append(f"{path}: header is not {header}")
        return []
    return rows[1:]


def read_artifacts(out_dir: str, n: int, size: int) -> Artifacts:
    """Parse and cross-check the files ``matchshed run --out-dir`` wrote
    for an ``n``-pattern run over ``size`` elements."""
    problems = []
    names = [f"P{i + 1}" for i in range(n)]
    matches = {i: [] for i in range(n)}
    path = os.path.join(out_dir, "matches.csv")
    for row in _read_csv(path, ["pattern", "emit_seq", "elements"],
                         problems):
        try:
            pid = names.index(row[0])
            emit = int(row[1])
            key = tuple(int(s) for s in row[2].split("|"))
        except (ValueError, IndexError):
            problems.append(f"{path}: malformed row {row}")
            continue
        if (len(row) != 3 or list(key) != sorted(key) or key[0] < 0
                or emit != key[-1] or emit >= size):
            problems.append(f"{path}: inconsistent row {row}")
            continue
        matches[pid].append((emit, key))

    recall = []
    path = os.path.join(out_dir, "metrics.csv")
    rows = _read_csv(path, ["pattern", "recall", "cms", "latency_ms"],
                     problems)
    if [r[0] for r in rows] != names:
        problems.append(f"{path}: expected one row per pattern {names}")
    else:
        for i, row in enumerate(rows):
            try:
                rec, cms, lat = float(row[1]), int(row[2]), float(row[3])
            except (ValueError, IndexError):
                problems.append(f"{path}: malformed row {row}")
                continue
            if not 0.0 <= rec <= 1.0 or lat < 0.0:
                problems.append(f"{path}: out-of-range row {row}")
            if cms != len(matches[i]):
                problems.append(f"{path}: {row[0]} cms={cms} but "
                                f"matches.csv has {len(matches[i])}")
            recall.append(rec)

    counters = {}
    path = os.path.join(out_dir, "run.json")
    try:
        with open(path) as f:
            manifest = json.load(f)
        counters = manifest["counters"]
        if manifest["elements"] != size:
            problems.append(f"{path}: elements={manifest['elements']}, "
                            f"stream has {size}")
        if sum(len(v) for v in matches.values()) != counters["cms_emitted"]:
            problems.append(f"{path}: cms_emitted disagrees with "
                            "matches.csv")
        missing = [k for k in ("config", "throughput", "latency_pcts",
                               "triggers") if k not in manifest]
        if missing:
            problems.append(f"{path}: missing {missing}")
    except (OSError, ValueError, KeyError, TypeError) as e:
        problems.append(f"{path}: unreadable or incomplete ({e!r})")
    return Artifacts(matches, recall, counters, problems)
