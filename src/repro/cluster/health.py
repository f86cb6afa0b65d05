"""Per-node health: heartbeats, a state machine, failure-domain score.

Each :class:`~repro.cluster.cluster.GuardianNode` carries one
:class:`NodeHealthMonitor`. Every cluster ``tick()`` delivers one
heartbeat *beat* to each monitor (answered or missed — a fault plan's
``HEARTBEAT_LOSS`` makes a node miss its deadline) and feeds it the
supervisor ``FailureRecord``s the node produced since the last beat.
From those two streams the monitor maintains

- a **health state machine** ``healthy → degraded → suspect → down``:
  misses walk the ladder (one missed deadline makes a node *suspect* —
  it may just be slow; ``DOWN_AFTER_MISSED`` consecutive misses
  declare it dead), while accumulated failure weight degrades it.
  ``down`` is terminal — a node that lost its memory cannot come back
  as the same node;
- a **failure-domain score** — an exponentially decayed sum of
  weighted failure events, the *Characterization-Guided GPU Fault
  Resilience* idea: chronic failure history is a property of the
  node (its board, its thermal envelope, its neighbours), so
  placement should steer load away from it long before it actually
  dies. The decay means a node that stops misbehaving earns its way
  back.

The monitor is pure bookkeeping: it never touches servers or tenants.
The cluster reads its state and score and *reacts* (placement
penalties, evacuation).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class NodeHealth(enum.Enum):
    """The per-node health ladder."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    SUSPECT = "suspect"
    DOWN = "down"


#: Failure-domain weight of one supervisor record, by action. Roughly:
#: containment events weigh like their budget cost; recoveries barely
#: register but still leave a trace (a node where retries keep
#: happening is a node with a flaky queue).
ACTION_WEIGHTS: dict[str, float] = {
    "quarantined": 3.0,
    "reaped": 2.0,
    "exhausted": 2.0,
    "fenced": 1.0,
    "armed": 1.0,
    "deadline": 0.5,
    "rejected": 0.25,
    "retried": 0.25,
    "delayed": 0.25,
    "suppressed": 0.1,
    "migrated": 0.0,  # the move itself is not the node's failure
    # A snapshot or restore that failed on this node (cluster-recorded).
    "migration_failed": 1.0,
}

# The health state machine's thresholds. Nothing outside tests sets
# them; a test that needs another value patches the module.

#: Consecutive missed heartbeats before the node is *suspect*.
SUSPECT_AFTER_MISSED = 1
#: Consecutive missed heartbeats before the node is *down*.
DOWN_AFTER_MISSED = 3
#: Failure score at which an answering node is *degraded*.
DEGRADE_SCORE = 2.0
#: Failure score at which even an answering node is *suspect*.
SUSPECT_SCORE = 8.0
#: Score below which a degraded/suspect node recovers to healthy.
RECOVER_SCORE = 1.0
#: Multiplicative score decay applied once per beat.
SCORE_DECAY = 0.9

#: Numeric rung per state, for gauges/dashboards (0 = healthy).
HEALTH_RUNG: dict[NodeHealth, int] = {
    NodeHealth.HEALTHY: 0,
    NodeHealth.DEGRADED: 1,
    NodeHealth.SUSPECT: 2,
    NodeHealth.DOWN: 3,
}


def publish_node_health(registry, monitor: "NodeHealthMonitor") -> None:
    """Mirror one monitor's state into a metrics registry.

    Two gauges per node: the ladder rung (0 healthy .. 3 down) and
    the failure-domain score placement penalizes by. A DOWN node's
    score is ``inf``; the gauge keeps the finite decayed sum and lets
    the rung carry the terminal state, so exposition stays numeric.
    """
    registry.gauge(
        "guardian_node_health_rung",
        "node health ladder rung (0 healthy, 1 degraded, "
        "2 suspect, 3 down)",
    ).set(HEALTH_RUNG[monitor.state], node=monitor.node_id)
    score = monitor.failure_domain_score()
    if score == float("inf"):
        score = monitor.score
    registry.gauge(
        "guardian_node_failure_domain_score",
        "decayed failure-domain score placement penalizes by",
    ).set(score, node=monitor.node_id)


@dataclass
class HealthTransition:
    """One state-machine edge, kept for the failure report."""

    beat: int
    previous: NodeHealth
    current: NodeHealth
    reason: str


class NodeHealthMonitor:
    """Tracks one node's heartbeat stream and failure history."""

    def __init__(self, node_id: str):
        self.node_id = node_id
        self.state = NodeHealth.HEALTHY
        self.score = 0.0
        self.beats = 0
        self.missed_consecutive = 0
        self.missed_total = 0
        self.transitions: list[HealthTransition] = []

    # -- inputs ---------------------------------------------------------------

    def beat(self, answered: bool) -> NodeHealth:
        """Deliver one heartbeat deadline; returns the (new) state."""
        self.beats += 1
        self.score *= SCORE_DECAY
        if answered:
            self.missed_consecutive = 0
        else:
            self.missed_consecutive += 1
            self.missed_total += 1
        self._step(
            "heartbeat answered" if answered
            else f"missed {self.missed_consecutive} deadline(s)"
        )
        return self.state

    def note_failure(self, action: str) -> None:
        """Charge one failure event (a supervisor record's action, or
        the cluster's ``"migration_failed"``) against the node."""
        self.score += ACTION_WEIGHTS.get(action, 0.5)
        self._step(f"failure event {action!r}")

    def force_down(self, reason: str) -> None:
        """Declare the node dead out-of-band (node crash injection)."""
        self._transition(NodeHealth.DOWN, reason)

    # -- the state machine -----------------------------------------------------

    def _step(self, reason: str) -> None:
        if self.state is NodeHealth.DOWN:
            return  # terminal
        if self.missed_consecutive >= DOWN_AFTER_MISSED:
            target = NodeHealth.DOWN
        elif (
            self.missed_consecutive >= SUSPECT_AFTER_MISSED
            or self.score >= SUSPECT_SCORE
        ):
            target = NodeHealth.SUSPECT
        elif self.score >= DEGRADE_SCORE:
            target = NodeHealth.DEGRADED
        elif self.score <= RECOVER_SCORE:
            target = NodeHealth.HEALTHY
        elif self.state is NodeHealth.SUSPECT:
            # Answering again, score in the hysteresis band: demote
            # one rung — full recovery waits for the score to decay.
            target = NodeHealth.DEGRADED
        else:
            target = self.state  # hysteresis: hold between thresholds
        self._transition(target, reason)

    def _transition(self, target: NodeHealth, reason: str) -> None:
        if target is self.state:
            return
        self.transitions.append(HealthTransition(
            beat=self.beats, previous=self.state, current=target,
            reason=reason,
        ))
        self.state = target

    # -- outputs ---------------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is not NodeHealth.DOWN

    @property
    def placeable(self) -> bool:
        """May the placement scheduler put *new* load here?"""
        return self.state in (NodeHealth.HEALTHY, NodeHealth.DEGRADED)

    def failure_domain_score(self) -> float:
        """The score placement penalizes by: the decayed failure sum,
        plus a surcharge while the node is actively degraded (its
        recent history is still playing out)."""
        surcharge = {
            NodeHealth.HEALTHY: 0.0,
            NodeHealth.DEGRADED: 1.0,
            NodeHealth.SUSPECT: 4.0,
            NodeHealth.DOWN: float("inf"),
        }[self.state]
        return self.score + surcharge
