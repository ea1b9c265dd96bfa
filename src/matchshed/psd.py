"""Pattern-sharing degree: per-state bitmaps and clustering of partial
matches by bitmap, read from the state buffers.

A state's psd has bit i set exactly when the state lies on pattern i's
start-to-accepting chain, i.e. its sub-pattern signature is a step-prefix
of pattern i.  The popcount is the sharing degree.  ``plan.merge`` sets
it, so every plan carries it; this module groups records by it.
"""

from __future__ import annotations

from .model import MatchRecord
from .plan import ExecutionPlan


def assess(plan: ExecutionPlan) -> "ClusterIndex":
    """The cluster index over the plan's states, by the psd bitmaps
    ``plan.merge`` set (``merge`` rejects a plan with a psd-0 state)."""
    return ClusterIndex(plan)


class ClusterIndex:
    """Partial matches grouped by their state's psd bitmap, as a view over
    the state buffers.  A record's cluster is fixed by its ``state_id``,
    so the index holds no record: cluster ``b`` is ``states[b]``, the
    non-start states with psd ``b`` in ascending ``state_id``.
    ``clusters`` is the one reader of its members."""

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self.n = plan.n
        self.states = {}  # psd bitmap -> [PlanState], ascending state_id
        for s in plan.states:
            if s.state_id != plan.start_id:
                self.states.setdefault(s.psd, []).append(s)
        # (walk, budget, drain), generated at the first guided reduction
        # (``selector.generate``)
        self.kernel = None

    def insert(self, pm: MatchRecord):
        """A no-op, kept because acceptance check 2 calls it and perfbench
        wraps it: buffering a record in its state
        (``ExecutionPlan.insert``) files it."""

    @property
    def clusters(self) -> dict:
        """psd bitmap -> members of every cluster, empty ones included: its
        states' records, state by state, each state's in insertion order
        (a state buffer holds only alive records, ``plan.PlanState``).
        Read-only; perfbench reads it for its index sizes."""
        return {b: [r for s in states for r in s.buffer]
                for b, states in self.states.items()}
