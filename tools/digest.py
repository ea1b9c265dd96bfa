"""Print one digest per run configuration of the checkout on PYTHONPATH.

A change that must not alter what matchshed computes (a performance
change in synthetic cost mode) shows the same lines before and after:

    PYTHONPATH=src python3 tools/digest.py > after.txt

Each line covers one configuration, seed, strategy and policy pair, and
hashes the matches, counters, selection audits, mean EWMA latency and
recall of ``runner.run``.  ``ds1-mixed`` runs P3 under a count window
of 500 and P4 under a time window of 300 ms (DS1 timestamps equal the
index), so a guard result shared by both patterns on their common
prefix serves patterns whose windows differ.  ``mixed`` runs DS2 under
count and time windows of four sizes in one plan, so that records
sharing a state leave their windows at different times.  ``length``
runs DS2 guided with ``theta="length"``, so a PM's overhead scales with
its length, which varies within one sketch key under Kleene steps.
Latency bounds are half of a ``none`` run's mean latency (2x overload),
as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib

from matchshed import workloads as wl
from matchshed.runner import STRATEGIES, RunConfig, run


def _ds2_patterns(windows):
    """DS2 templates P1, P2, P5 and P6 with the given WITHIN clauses."""
    t = wl.templates(window=200)
    return [t[k].replace("WITHIN 200", f"WITHIN {w}")
            for k, w in zip(("P1", "P2", "P5", "P6"), windows)]


# configuration -> (dataset, patterns, RunConfig fields, strategies)
CONFIGS = {
    "ds1": ("ds1", [wl.templates(window=500)[k] for k in ("P3", "P4")],
            {}, STRATEGIES),
    "ds1-mixed": ("ds1", [wl.templates(window=500)["P3"],
                          wl.templates(window=300)["P4"].replace(
                              "WITHIN 300", "WITHIN 300 ms")],
                  {}, STRATEGIES),
    "ds2": ("ds2", _ds2_patterns(["200 ms"] * 4), {}, STRATEGIES),
    "mixed": ("ds2", _ds2_patterns(["200 ms", "120 ms", "150", "80"]), {},
              STRATEGIES),
    "length": ("ds2", _ds2_patterns(["200 ms"] * 4), {"theta": "length"},
               ("guided",)),
}
POLICIES = (("skip-any", "reuse"), ("skip-next", "consume"))


def digest(m) -> str:
    audits = [a.csv_row(m.n) for a in m.audits]
    blob = repr((m.matches, m.counters, audits, m.latency_mean, m.recall,
                 m.triggers))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ds1", type=int, default=15_000, help="DS1 elements")
    ap.add_argument("--ds2", type=int, default=5_000, help="DS2 elements")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    args = ap.parse_args(argv)
    sizes = {"ds1": args.ds1, "ds2": args.ds2}
    for name, (ds, patterns, fields, strategies) in CONFIGS.items():
        gen = wl.gen_ds1 if ds == "ds1" else wl.gen_ds2
        for seed in args.seeds:
            stream = gen(sizes[ds], seed)
            for sel, cons in POLICIES:
                base = dict(patterns=patterns, selection=sel,
                            consumption=cons, seed=seed, **fields)
                calib = run(RunConfig(**base), stream)
                bounds = [x / 2 for x in calib.latency_mean]
                for strategy in strategies:
                    m = (calib if strategy == "none" else
                         run(RunConfig(**base, strategy=strategy,
                                       bounds=bounds), stream))
                    print(name, seed, sel, cons, strategy, digest(m),
                          flush=True)


if __name__ == "__main__":
    main()
