"""Pattern-sharing degree: per-state bitmaps and clustering of partial
matches by bitmap, with O(1) cluster lookup.

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
    """Fill every state's psd bitmap and build the cluster index.

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
    """Partial matches grouped by their state's psd bitmap.

    Discarded and expired records are removed lazily: membership lists
    keep dead entries until the next compaction, but ``lookup`` and
    iteration only yield live records.  A list is compacted, in order,
    when selection reads it or when it has doubled since it was last
    compacted, so it holds at most twice the live members it had then
    plus a small constant.
    """

    SLACK = 16  # entries a list may grow by when it had no live members

    def __init__(self, plan: ExecutionPlan):
        self.plan = plan
        self.n = plan.n
        self.clusters = {}  # psd bitmap -> list[MatchRecord]
        self._compact_at = {}  # psd bitmap -> list length that compacts
        for s in plan.states:
            if s.psd != 0 and s.state_id != plan.start_id:
                self.clusters.setdefault(s.psd, [])

    def insert(self, pm: MatchRecord):
        b = self.plan.states[pm.state_id].psd
        members = self.clusters.setdefault(b, [])
        members.append(pm)
        if len(members) >= self._compact_at.get(b, self.SLACK):
            self._compact(b, members)

    def _compact(self, b: int, members: list) -> list:
        live = [r for r in members if r.alive]
        if len(live) < len(members):
            members[:] = live
        self._compact_at[b] = 2 * len(live) + self.SLACK
        return live

    def lookup(self, b: int) -> list:
        """Live members of the cluster keyed by bitmap b."""
        members = self.clusters.get(b)
        if not members:
            return []
        return self._compact(b, members)

    def live_clusters(self):
        """(bitmap, live member list) for every nonempty cluster."""
        for b in self.clusters:
            live = self.lookup(b)
            if live:
                yield b, live
