"""Pattern-sharing degree: per-state bitmaps and clustering of partial
matches by bitmap, read from the state buffers.

A state's psd has bit i set exactly when the state lies on pattern i's
start-to-accepting chain, i.e. its sub-pattern signature is a step-prefix
of pattern i.  The popcount is the sharing degree.
"""

from __future__ import annotations

import logging

from .model import MatchRecord, pattern_bit
from .plan import ExecutionPlan

log = logging.getLogger(__name__)


def assess(plan: ExecutionPlan, patterns=None) -> "ClusterIndex":
    """Fill every state's psd bitmap and build the cluster index over the
    plan's states.

    The start state lies on every chain, so its psd is the OR of all
    pattern bits.  States on no chain (unreachable) get psd 0, a warning,
    and no cluster.
    """
    if patterns is None:
        patterns = plan.patterns
    n = len(patterns)
    for s in plan.states:
        s.psd = 0
    all_bits = 0
    for p in patterns:
        b = pattern_bit(p.id, n)
        all_bits |= b
        for sid in plan.pattern_paths[p.id]:
            plan.states[sid].psd |= b
    plan.states[plan.start_id].psd = all_bits
    for s in plan.states:
        if s.psd == 0:
            log.warning("state %d (%r) is unreachable; psd = 0",
                        s.state_id, s.signature)
    return ClusterIndex(plan)


class ClusterIndex:
    """Partial matches grouped by their state's psd bitmap, as a view over
    the state buffers.  A record's cluster is fixed by its ``state_id``,
    so the index holds no record: cluster ``b`` is ``states[b]``, the
    non-start states with psd ``b`` in ascending ``state_id``, and its
    members are their alive records, state by state, each state's in
    insertion order."""

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self.n = plan.n
        self.states = {}  # psd bitmap -> [PlanState], ascending state_id
        for s in plan.states:
            if s.psd != 0 and s.state_id != plan.start_id:
                self.states.setdefault(s.psd, []).append(s)

    def insert(self, pm: MatchRecord):
        """A no-op, kept for callers that still wrap it: buffering a
        record in its state (``ExecutionPlan.insert``) files it."""

    @property
    def clusters(self) -> dict:
        """psd bitmap -> buffered records of its states, tombstones
        included; read-only."""
        return {b: [r for s in states for r in s.buffer]
                for b, states in self.states.items()}

    def lookup(self, b: int) -> list:
        """Live members of the cluster keyed by bitmap b."""
        return [r for s in self.states.get(b, ()) for r in s.buffer
                if r.alive]

    def live_clusters(self):
        """(bitmap, live member list) for every nonempty cluster."""
        for b in self.states:
            live = self.lookup(b)
            if live:
                yield b, live
