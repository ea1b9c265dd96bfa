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
sharing a state leave their windows at different times.  ``strict``
runs DS2 with P1 and P5 under ``POLICY strict, reuse`` (and without
SAME, so that they match), so strict guards share the A-B+ and A-B
edges with the guards of P2 and P6.  ``late`` runs DS2 under time
windows with every 97th element's timestamp lowered by 30 ms, below its
predecessors', so the engine trims its side state under decreasing
timestamps.  ``residual`` runs P1 and P2 beside a pattern that ends
in their shared A-B+ state with a SUM over the Kleene step, which only
the accepting transition can check (the plan's residual).
Latency bounds are half of a ``none`` run's mean latency (2x overload),
as in the benchmark.

After those, one ``csv`` line per dataset hashes what
``load_csv(write_csv(...))`` returns for each seed's stream, element by
element (type tag, seq, attribute names and the bits of the timestamp
and attribute values), so a change to CSV ingest shows too.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import tempfile

from matchshed import workloads as wl
from matchshed.runner import STRATEGIES, RunConfig, run


def _ds2_patterns(windows):
    """DS2 templates P1, P2, P5 and P6 with the given WITHIN clauses."""
    t = wl.templates(window=200)
    return [t[k].replace("WITHIN 200", f"WITHIN {w}")
            for k, w in zip(("P1", "P2", "P5", "P6"), windows)]


def _strict(text):
    """A DS2 template under strict contiguity, without its SAME [ID]:
    adjacent elements rarely share an ID, and the strict pattern should
    match."""
    return text.replace("SAME [ID] AND ", "").replace(
        " WHERE SAME [ID]", "") + " POLICY strict, reuse"


def _late(n, seed):
    """A DS2 stream whose every 97th element arrives 30 ms late."""
    stream = wl.gen_ds2(n, seed)
    for d in stream[::97]:
        d.timestamp -= 30
    return stream


GENERATORS = {"ds1": wl.gen_ds1, "ds2": wl.gen_ds2, "late": _late}
# ends in a Kleene step, so no guard can decide its SUM
RESIDUAL = ("SEQ(A a, B+ b[]) WHERE SAME [ID] AND SUM(b[].x) < a.x "
            "WITHIN 200 ms")


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
    "strict": ("ds2", [_strict(t) if k in ("P1", "P5") else t
                       for k, t in zip(("P1", "P2", "P5", "P6"),
                                       _ds2_patterns(["200 ms"] * 4))],
               {}, STRATEGIES),
    "late": ("late", _ds2_patterns(["200 ms"] * 4), {}, STRATEGIES),
    "residual": ("ds2", [RESIDUAL] + _ds2_patterns(["200 ms"] * 2),
                 {}, STRATEGIES),
}
POLICIES = (("skip-any", "reuse"), ("skip-next", "consume"))


def digest(m) -> str:
    audits = [a.csv_row(m.n) for a in m.audits]
    blob = repr((m.matches, m.counters, audits, m.latency_mean, m.recall,
                 m.triggers))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def csv_digest(streams) -> str:
    """Hash of every element of each stream after a CSV round trip."""
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.csv")
        for stream in streams:
            wl.write_csv(stream, path)
            for d in wl.load_csv(path):
                h.update(repr((d.type_tag, d.seq_index,
                               tuple(d.attrs))).encode())
                h.update(struct.pack(f"<{1 + len(d.attrs)}d", d.timestamp,
                                     *d.attrs.values()))
    return h.hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ds1", type=int, default=15_000, help="DS1 elements")
    ap.add_argument("--ds2", type=int, default=5_000, help="DS2 elements")
    ap.add_argument("--seeds", type=int, nargs="+", default=[5, 6])
    args = ap.parse_args(argv)
    sizes = {"ds1": args.ds1, "ds2": args.ds2, "late": args.ds2}
    for name, (ds, patterns, fields, strategies) in CONFIGS.items():
        for seed in args.seeds:
            stream = GENERATORS[ds](sizes[ds], seed)
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
    for ds in ("ds1", "ds2"):
        streams = (GENERATORS[ds](sizes[ds], seed) for seed in args.seeds)
        print("csv", ds, csv_digest(streams), flush=True)


if __name__ == "__main__":
    main()
