"""Print the code generated for a run configuration: the sweep module of
its Engine, the latency fold of its monitor and its guided-reduction
kernel.

    PYTHONPATH=src python3 tools/sweep_source.py --config cfg.json

``cfg.json`` is a ``RunConfig`` JSON file, as ``matchshed run --config``
reads it; a missing or bad file, or a pattern that does not parse or
compile, is a usage error (exit 2).  The output is ``Engine.source`` for
the plan and the selection and consumption policies it names: first the
negation gap checks ``gap_<k>``, then one ``sweep_<i>`` function per
trigger event type (and per negated type that triggers none, which only
records the element for the gap checks), which takes the gap checks it
calls as default arguments.  A pattern's residual check (a SUM over a
final Kleene step, which no guard can decide) prints where the sweep
accepts a match of that pattern, on the transition into its accepting
state.  Names such as ``L12``, ``B13`` or ``M3`` are objects bound in
the module's namespace (a state's buffer, its bucket dict, masks,
constants), not part of the text.  Then comes the ``fold`` that
``engine.measure`` runs for the plan, after a comment line that gives
its ``GROUP`` table: state id -> the group of states whose psd names the
same patterns, 0 for none.  Last comes the reduction kernel that
``selector.budgets`` and ``selector.select`` run for the plan's cluster
index, unrolled over the clusters (``c<j>``, commented with their psd)
and patterns: ``walk``; ``budget``, which flags the overloaded patterns,
walks and fills the budgets; and ``drain``, which discards a PM from its
state's buffer and bucket through ``DISCARD``, the plan's ``discard``.
``S<id>`` is the state of that id.
"""

from __future__ import annotations

import argparse

from matchshed import psd, selector, sweep
from matchshed.engine import Engine
from matchshed.model import ConsumptionPolicy, SelectionPolicy
from matchshed.runner import RunConfig, build_plan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="RunConfig JSON file")
    args = ap.parse_args(argv)
    try:
        cfg = RunConfig.from_json(args.config)
        plan = build_plan(cfg)
    except (OSError, ValueError) as e:  # no file, not JSON, a bad key or value
        ap.error(str(e))
    eng = Engine(plan, SelectionPolicy(cfg.selection),
                 ConsumptionPolicy(cfg.consumption))
    print(eng.source, end="")
    source, ns = sweep.generate_fold(eng.plan)
    print(f"\n# GROUP = {ns['GROUP']}")
    print(source, end="")
    source, _ = selector.generate(psd.assess(eng.plan))
    print("\n# reduction kernel")
    print(source, end="")


if __name__ == "__main__":
    main()
