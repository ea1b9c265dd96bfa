"""Command-line entry points: datagen, run, report."""

from __future__ import annotations

import argparse
import csv
import glob
import json
import os
import sys

from . import parser, plan, workloads
from .runner import (MissingColumnError, RunConfig, check_out_dir, keywords,
                     run)
from .workloads import Drift, GeneratorSpec


def _read_spec(path: str) -> GeneratorSpec:
    """The generator spec of the JSON file ``path``."""
    with open(path) as f:
        raw = keywords(GeneratorSpec, json.load(f), path, "a generator spec")
    drifts = raw.get("drifts", [])
    if not isinstance(drifts, list):
        raise ValueError(f"{path}: drifts is a JSON list")
    raw["drifts"] = [Drift(**keywords(Drift, d, path, "a drift"))
                     for d in drifts]
    return GeneratorSpec(**raw)


def _check_out_file(args, path: str):
    """A usage error unless ``path`` can be written as a file: its
    directory exists and it is no directory itself."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        args.parser.error(f"--out {path}: no such directory {folder}")
    if os.path.isdir(path):
        args.parser.error(f"--out {path}: is a directory")


def _cmd_datagen(args):
    _check_out_file(args, args.out)
    specs = {"ds1": workloads.ds1_spec, "ds2": workloads.ds2_spec}
    try:
        spec = (_read_spec(args.spec) if args.dataset == "custom" else
                specs[args.dataset](args.count, args.seed))
    except (OSError, ValueError) as e:  # no file, not JSON, a bad key or value
        args.parser.error(str(e))
    if args.drift:
        extra = []
        for txt in args.drift:
            try:
                offset, attr, lo, hi = txt.split(":")
                extra.append(Drift(int(offset), attr, float(lo), float(hi)))
            except ValueError:
                args.parser.error(f"--drift {txt!r} is not "
                                  "offset:attr:low:high")
        try:
            spec = workloads.inject_drift(spec, extra)
        except ValueError as e:     # outside the stream, or a bad range
            args.parser.error(f"--drift: {e}")
    workloads.write_csv(workloads.generate(spec), args.out)
    print(f"wrote {spec.count} elements to {args.out}")


def _cmd_run(args):
    try:
        cfg = RunConfig.from_json(args.config)
        if args.out_dir:
            cfg.out_dir = args.out_dir
        if cfg.out_dir:
            check_out_dir(cfg.out_dir)
        stream = workloads.load_csv(args.input)
    except (OSError, ValueError) as e:  # no file, not JSON or CSV, bad data
        args.parser.error(str(e))
    try:
        m = run(cfg, stream, columns=stream.columns)
    except (parser.PatternSyntaxError, plan.PlanError) as e:  # a pattern
        args.parser.error(str(e))
    except MissingColumnError as e:
        args.parser.error(f"{args.input}: {e}")
    for i in range(m.n):
        rec = "-" if m.recall is None else f"{m.recall[i]:.4f}"
        print(f"P{i + 1}: matches={len(m.matches[i])} recall={rec} "
              f"latency={m.latency_ms[i]:.4f}ms")
    print(f"elements={m.elements} triggers={m.triggers} "
          f"throughput={m.throughput:.0f}/s")
    return 0


def _cmd_report(args):
    _check_out_file(args, args.out)
    if not os.path.isdir(args.in_dir):
        args.parser.error(f"--in {args.in_dir}: no such directory")
    rows = []
    paths = sorted(glob.glob(os.path.join(args.in_dir, "*", "run.json")))
    if not paths:
        args.parser.error(f"--in {args.in_dir}: no run directory with a "
                          "run.json")
    for path in paths:
        try:
            with open(path) as f:
                manifest = json.load(f)
            run_cols = {"strategy": manifest["config"]["strategy"],
                        "triggers": manifest["triggers"]}
        except (OSError, ValueError, LookupError, TypeError) as e:
            args.parser.error(f"{path}: not a run manifest ({e!r})")
        run_name = os.path.basename(os.path.dirname(path))
        mpath = os.path.join(os.path.dirname(path), "metrics.csv")
        try:
            with open(mpath, newline="") as f:
                for row in csv.DictReader(f):
                    rows.append({"run": run_name, **row, **run_cols})
        except OSError as e:    # a run directory without metrics.csv
            args.parser.error(str(e))
    with open(args.out, "w", newline="") as f:
        if rows:
            w = csv.DictWriter(f, fieldnames=list(rows[0]))
            w.writeheader()
            w.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="matchshed")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("datagen", help="generate a synthetic stream CSV")
    g.add_argument("--dataset", choices=["ds1", "ds2", "custom"],
                   default="ds1")
    g.add_argument("--spec", help="generator spec JSON (custom dataset)")
    g.add_argument("--count", type=int, default=10000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--drift", action="append",
                   help="offset:attr:low:high (repeatable)")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=_cmd_datagen, parser=g)

    r = sub.add_parser("run", help="run one config over a stream")
    r.add_argument("--config", required=True, help="RunConfig JSON")
    r.add_argument("--input", required=True, help="stream CSV")
    r.add_argument("--out-dir")
    r.set_defaults(fn=_cmd_run, parser=r)

    p = sub.add_parser("report", help="aggregate run artifacts")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report, parser=p)

    args = ap.parse_args(argv)
    if args.cmd == "datagen" and args.dataset == "custom" and not args.spec:
        g.error("--dataset custom needs --spec")
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
