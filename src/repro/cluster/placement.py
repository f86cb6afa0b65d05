"""Failure-domain-aware admission and placement.

The scheduler answers one question: *which node should host this
partition?* Its cost function composes

- **capacity fit** — the node must be able to carve the (power-of-two
  rounded) partition right now (:meth:`GuardianAllocator.can_carve`);
  among nodes that fit, the occupancy term (weight 1) bin-packs by
  default: fuller nodes cost less, so small tenants fill the gaps of
  busy nodes before a fresh node is dented;
- **failure-domain penalty** — each node's decayed failure score
  (:meth:`NodeHealthMonitor.failure_domain_score`) scaled by
  ``FAILURE_PENALTY``: a chronically faulty node keeps *losing* the
  placement auction even while technically up, so it sheds load over
  time — the *Characterization-Guided GPU Fault Resilience* policy;
- **health gating** — ``suspect``/``down`` nodes are excluded outright
  (a node that just missed its deadline is not a place to put fresh
  state).

Ties break on node id, so placement is deterministic for a given
cluster state — a property every reproducibility test leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core import masks


#: Weight of a node's failure-domain score against the occupancy term
#: (the fraction of the node's partitionable bytes in use after this
#: placement, weight 1).
FAILURE_PENALTY = 0.5


@dataclass(frozen=True)
class PlacementPolicy:
    """The placement cost function's one setting."""

    #: Prefer packing onto busier nodes (True, the default: the
    #: occupancy term *rewards* fuller nodes so small tenants fill
    #: gaps) or spreading across emptier ones (False: occupancy term
    #: flips sign — lowest-occupancy wins).
    pack: bool = True

    def score(self, node, max_bytes: int) -> Optional[float]:
        """Cost of placing a ``max_bytes`` partition on ``node``;
        ``None`` when the node is ineligible."""
        if not node.monitor.placeable or node.crashed:
            return None
        size = (
            masks.next_power_of_two(max_bytes)
            if node.server.allocator.require_power_of_two
            else max_bytes
        )
        if not node.server.allocator.can_carve(size):
            return None
        allocator = node.server.allocator
        occupancy = (allocator.bytes_partitioned + size) / allocator.total_bytes
        occupancy_cost = (1.0 - occupancy) if self.pack else occupancy
        return (occupancy_cost
                + FAILURE_PENALTY * node.monitor.failure_domain_score())

    def choose(self, nodes: Iterable, max_bytes: int,
               exclude: tuple[str, ...] = ()):
        """The cheapest eligible node, or ``None``. Deterministic:
        equal scores resolve to the smaller node id."""
        best = None
        best_key = None
        for node in nodes:
            if node.node_id in exclude:
                continue
            cost = self.score(node, max_bytes)
            if cost is None:
                continue
            key = (cost, node.node_id)
            if best_key is None or key < best_key:
                best, best_key = node, key
        return best
