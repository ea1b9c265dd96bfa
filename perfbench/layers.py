"""Outside-in layer instrumentation for the traced replay.

Each layer's public functions are wrapped under the names the caller
resolves them by (``runner.measure``, ``runner.golden_run``,
``runner.build_plan``, ``engine.eval_predicate``, the ``Engine`` and
``ClusterIndex`` class attributes, ...), so the program runs unchanged
while every call becomes a span.  Counts are taken at the same
boundaries from arguments and return values.  State sizes are sampled at
each ``Engine.expire`` call and the PMs each ``selector.select`` call
tombstones are recorded; both inspections run inside ``trace.sample``
spans so their cost is not booked to a layer.
"""

from __future__ import annotations

from matchshed import cli, cost, psd, runner, selector
from matchshed import engine as me
from matchshed import workloads as mw
from matchshed.model import pattern_bit
from matchshed.psd import ClusterIndex

from spans import Tracer, self_times

SELF_TIMES = {
    "engine.step.self_s": "engine.step",
    "engine.expire.self_s": "engine.expire",
    "engine.golden_run.self_s": "engine.golden_run",
    "engine.measure.self_s": "engine.measure",
    "expr.eval_predicate.self_s": "expr.eval_predicate",
    "psd.assess.self_s": "psd.assess",
    "psd.insert.self_s": "psd.insert",
    "cost.sketch_update.self_s": "cost.sketch_update",
    "cost.decay.self_s": "cost.decay",
    "selector.trigger.self_s": "selector.trigger",
    "selector.budgets.self_s": "selector.budgets",
    "selector.select.self_s": "selector.select",
    "workloads.load_csv.self_s": "workloads.load_csv",
    "runner.write_artifacts.self_s": "runner.write_artifacts",
    "runner.loop_self_s": "runner.run",
    "cli.main.self_s": "cli.main",
    "trace.sample_s": "trace.sample",
}
CALLS = {
    "engine.step.calls": "engine.step",
    "engine.expire.calls": "engine.expire",
    "expr.eval_predicate.calls": "expr.eval_predicate",
    "cost.sketch_update.calls": "cost.sketch_update",
    "selector.selections": "selector.select",
}


def prefixes(reference: dict) -> dict:
    """pid -> every proper and full prefix of the pattern's reference
    match keys (element seq indices in sequence order)."""
    out = {}
    for pid, matches in reference.items():
        s = out[pid] = set()
        for _, key in matches:
            for k in range(1, len(key) + 1):
                s.add(key[:k])
    return out


def productive_share(shed, reference_prefixes: dict, n: int) -> float:
    """Share of shed PMs ``(pattern_bits, seqs)`` whose elements are a
    prefix of a reference match of a pattern the PM served: PMs that
    would have gone on to a complete match had they been kept."""
    if not shed:
        return 0.0
    productive = sum(
        1 for bits, seqs in shed
        if any(bits & pattern_bit(pid, n) and seqs in pref
               for pid, pref in reference_prefixes.items()))
    return productive / len(shed)


class LayerTrace:
    """Spans and counters for one traced replay."""

    def __init__(self, n_patterns: int):
        self.n = n_patterns
        self.tracer = Tracer()
        self.c = dict.fromkeys((
            "work_units", "new_pms", "evicted", "pred_true", "chain_credits",
            "estimate_calls", "kept", "discarded", "live_peak", "dead_peak",
            "history_end", "index_peak", "sketch_peak"), 0)
        self.index = None
        self.sketch = None
        self.result = None      # the Metrics runner.run returned
        self._run = None        # traced runner.run, set by patches()
        self.shed = []          # (pattern_bits, seq tuple) per tombstoned PM

    # ------------------------------------------------------------ patches

    def patches(self) -> list:
        t, c = self.tracer, self.c
        span = t.wrap

        def after(traced, on_result):
            def fn(*args, **kwargs):
                res = traced(*args, **kwargs)
                on_result(res, args)
                return res
            return fn

        def keep_result(res, args):
            self.result = res

        def keep_index(res, args):
            self.index = res

        def count_step(res, args):
            c["work_units"] += sum(res.work.values())
            c["new_pms"] += len(res.new_pms)

        def count_pred(res, args):
            c["pred_true"] += bool(res)

        def count_credits(res, args):
            self.sketch = args[0]
            rec = args[1]
            while rec is not None:
                c["chain_credits"] += 1
                rec = rec.parent

        traced_expire = span(me.Engine.expire, "engine.expire")

        def expire(eng, now_seq, now_ts):
            i = t.open("trace.sample")
            self._sample_state(eng)
            t.close(i)
            evicted = traced_expire(eng, now_seq, now_ts)
            c["evicted"] += evicted
            return evicted

        estimate = cost.estimate

        def counted_estimate(*args, **kwargs):
            c["estimate_calls"] += 1
            return estimate(*args, **kwargs)

        traced_select = span(selector.select, "selector.select")

        def select(index, *args, **kwargs):
            i = t.open("trace.sample")
            live = [r for members in index.clusters.values()
                    for r in members if r.alive]
            t.close(i)
            audit = traced_select(index, *args, **kwargs)
            i = t.open("trace.sample")
            self.shed.extend((r.pattern_bits, r.seq_tuple())
                             for r in live if not r.alive)
            t.close(i)
            c["kept"] += audit.kept
            c["discarded"] += audit.discarded
            return audit

        self._run = after(span(runner.run, "runner.run"), keep_result)
        return [
            (cli, "run", self._run),
            (runner, "build_plan",
             span(runner.build_plan, "plan.build_plan")),
            (runner, "parse_pattern",
             span(runner.parse_pattern, "parser.parse_pattern")),
            (runner, "merge", span(runner.merge, "plan.merge")),
            (runner, "golden_run", span(runner.golden_run,
                                        "engine.golden_run")),
            (runner, "measure", span(runner.measure, "engine.measure")),
            (runner, "write_artifacts",
             span(runner.write_artifacts, "runner.write_artifacts")),
            (psd, "assess", after(span(psd.assess, "psd.assess"),
                                  keep_index)),
            (ClusterIndex, "insert", span(ClusterIndex.insert, "psd.insert")),
            (me.Engine, "step", after(span(me.Engine.step, "engine.step"),
                                      count_step)),
            (me.Engine, "expire", expire),
            (me, "eval_predicate",
             after(span(me.eval_predicate, "expr.eval_predicate"),
                   count_pred)),
            (cost, "sketch_update",
             after(span(cost.sketch_update, "cost.sketch_update"),
                   count_credits)),
            (cost, "estimate", counted_estimate),
            (cost, "decay", span(cost.decay, "cost.decay")),
            (selector, "trigger", span(selector.trigger, "selector.trigger")),
            (selector, "budgets", span(selector.budgets, "selector.budgets")),
            (selector, "select", select),
            (mw, "load_csv", span(mw.load_csv, "workloads.load_csv")),
        ]

    def entry(self, via_cli: bool):
        """The traced root call, ``cli.main`` or ``runner.run``; call
        ``patches()`` first."""
        if via_cli:
            return self.tracer.wrap(cli.main, "cli.main")
        return self._run

    def _sample_state(self, eng):
        live = dead = 0
        for state in eng.plan.states:
            for rec in state.buffer:
                if rec.alive:
                    live += 1
                else:
                    dead += 1
        c = self.c
        c["live_peak"] = max(c["live_peak"], live)
        c["dead_peak"] = max(c["dead_peak"], dead)
        c["history_end"] = sum(len(seqs) for seqs, _ in eng.history.values())
        if self.index is not None:
            c["index_peak"] = max(c["index_peak"], sum(
                len(m) for m in self.index.clusters.values()))
        if self.sketch is not None:
            c["sketch_peak"] = max(c["sketch_peak"], len(self.sketch.table))

    # ------------------------------------------------------------ metrics

    def metrics(self, reference_prefixes: dict) -> dict:
        """Per-layer metrics of the finished replay (see README.md)."""
        c = self.c
        st = self_times(self.tracer.spans())
        out = {}
        for metric, name in SELF_TIMES.items():
            out[metric] = st.get(name, {}).get("self_s", 0.0)
        for metric, name in CALLS.items():
            out[metric] = st.get(name, {}).get("calls", 0)
        out["plan.build_s"] = st.get("plan.build_plan", {}).get("total_s",
                                                                0.0)

        out["engine.work_units"] = c["work_units"]
        out["engine.extend_ratio"] = (c["new_pms"] / c["work_units"]
                                      if c["work_units"] else 0.0)
        out["engine.expire.evicted"] = c["evicted"]
        counters = self.result.counters
        for k in ("pms_created", "pms_expired", "pms_shed", "cms_emitted"):
            out[f"engine.{k}"] = counters[k]
        out["engine.live_pms_peak"] = c["live_peak"]
        out["engine.dead_records_peak"] = c["dead_peak"]
        out["engine.history_len_end"] = c["history_end"]

        calls = out["expr.eval_predicate.calls"]
        out["expr.accept_ratio"] = c["pred_true"] / calls if calls else 0.0

        plan = self.index.plan
        out["plan.states"] = len(plan.states)
        out["plan.edges"] = len(plan.edges)
        out["plan.shared_states"] = sum(
            1 for s in plan.states
            if s.state_id != plan.start_id and s.psd.bit_count() > 1)

        entries = sum(len(m) for m in self.index.clusters.values())
        dead = sum(1 for m in self.index.clusters.values()
                   for r in m if not r.alive)
        out["psd.index_entries_end"] = entries
        out["psd.index_entries_peak"] = max(c["index_peak"], entries)
        out["psd.index_dead_ratio"] = dead / entries if entries else 0.0

        out["cost.chain_credits"] = c["chain_credits"]
        out["cost.estimate.calls"] = c["estimate_calls"]
        out["cost.sketch_keys_end"] = (len(self.sketch.table)
                                       if self.sketch is not None else 0)
        out["cost.sketch_keys_peak"] = max(c["sketch_peak"],
                                           out["cost.sketch_keys_end"])

        out["selector.kept"] = c["kept"]
        out["selector.discarded"] = c["discarded"]
        out["selector.shed_productive_share"] = productive_share(
            self.shed, reference_prefixes, self.n)
        out["trace.spans"] = len(self.tracer)
        return out

    def root_wall_s(self) -> float:
        """Summed duration of the root spans, which the self times of all
        spans add up to."""
        t = self.tracer
        return sum(e - s for s, e, p in zip(t.start, t.end, t.parent)
                   if p < 0)
