"""Guardian's fleet control plane: node health, placement, migration."""

from repro.cluster.client import ClusterClient
from repro.cluster.cluster import (
    ClusterConfig,
    ClusterTenant,
    EvictionRecord,
    GuardianCluster,
    GuardianNode,
    MigrationRecord,
)
from repro.cluster.health import (
    ACTION_WEIGHTS,
    HealthTransition,
    NodeHealth,
    NodeHealthMonitor,
)
from repro.cluster.placement import PlacementPolicy

__all__ = [
    "ACTION_WEIGHTS",
    "ClusterClient",
    "ClusterConfig",
    "ClusterTenant",
    "EvictionRecord",
    "GuardianCluster",
    "GuardianNode",
    "HealthTransition",
    "MigrationRecord",
    "NodeHealth",
    "NodeHealthMonitor",
    "PlacementPolicy",
]
