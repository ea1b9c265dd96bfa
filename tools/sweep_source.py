"""Print the code generated for a run configuration: the sweep module of
its Engine and the latency fold of its monitor.

    PYTHONPATH=src python3 tools/sweep_source.py --config run.json

``run.json`` is a ``RunConfig`` JSON file, as ``matchshed run --config``
reads it.  The output is ``Engine.source`` for the plan and the
selection and consumption policies it names: one ``sweep_<i>`` function
per trigger event type (and per negated type that triggers none, which
only records the element for the gap checks), then the negation gap
checks.  Names such as ``S12`` or ``M3`` are objects bound in the
module's namespace (states, bucket dicts, masks, constants), not part
of the text.  Then comes the ``fold`` that ``engine.measure`` runs for
the plan, after a comment line that gives its ``GROUP`` table: state id
-> the group of states whose psd names the same patterns, 0 for none.
"""

from __future__ import annotations

import argparse

from matchshed import sweep
from matchshed.engine import Engine
from matchshed.model import ConsumptionPolicy, SelectionPolicy
from matchshed.runner import RunConfig, build_plan


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True, help="RunConfig JSON file")
    args = ap.parse_args(argv)
    cfg = RunConfig.from_json(args.config)
    eng = Engine(build_plan(cfg), SelectionPolicy(cfg.selection),
                 ConsumptionPolicy(cfg.consumption))
    print(eng.source, end="")
    source, ns = sweep.generate_fold(eng.plan)
    print(f"\n# GROUP = {ns['GROUP']}")
    print(source, end="")


if __name__ == "__main__":
    main()
