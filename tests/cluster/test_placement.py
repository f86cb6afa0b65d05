"""Admission placement: bin-packing with failure-domain penalties."""

from unittest import mock

import pytest

from repro.cluster import (
    ClusterConfig,
    GuardianCluster,
    PlacementPolicy,
    placement,
)
from repro.cluster.health import NodeHealth


@pytest.fixture
def cluster():
    return GuardianCluster(3)


class TestEligibility:
    def test_crashed_node_excluded(self, cluster):
        cluster.node("node0").crash("test")
        node = cluster.config.placement.choose(cluster.nodes, 1 << 20)
        assert node.node_id != "node0"

    def test_suspect_node_excluded(self, cluster):
        cluster.node("node0").monitor.beat(answered=False)
        assert cluster.node("node0").monitor.state is NodeHealth.SUSPECT
        assert cluster.config.placement.score(
            cluster.node("node0"), 1 << 20) is None

    def test_full_node_excluded(self, cluster):
        total = cluster.node("node0").server.allocator.total_bytes
        cluster.attach("hog", total)
        hog_node = cluster.tenants["hog"].node
        assert cluster.config.placement.score(hog_node, 1 << 20) is None

    def test_no_eligible_node_returns_none(self, cluster):
        for node in cluster.nodes:
            node.crash("test")
        assert cluster.config.placement.choose(cluster.nodes, 1 << 20) is None

    def test_exclude_parameter(self, cluster):
        chosen = cluster.config.placement.choose(
            cluster.nodes, 1 << 20,
            exclude=("node0", "node1"),
        )
        assert chosen.node_id == "node2"


class TestCostFunction:
    def test_deterministic_tie_break_on_node_id(self, cluster):
        # Identical empty nodes: lowest id wins.
        assert cluster.config.placement.choose(
            cluster.nodes, 1 << 20).node_id == "node0"

    def test_pack_prefers_fuller_node(self, cluster):
        cluster.attach("a", 1 << 20)
        assert cluster.tenants["a"].node.node_id == "node0"
        # pack=True: the next tenant joins node0 rather than denting node1
        cluster.attach("b", 1 << 20)
        assert cluster.tenants["b"].node.node_id == "node0"

    def test_spread_prefers_emptier_node(self):
        cluster = GuardianCluster(
            3, config=ClusterConfig(
                placement=PlacementPolicy(pack=False)),
        )
        cluster.attach("a", 1 << 20)
        cluster.attach("b", 1 << 20)
        homes = {cluster.tenants["a"].node.node_id,
                 cluster.tenants["b"].node.node_id}
        assert homes == {"node0", "node1"}

    def test_failure_penalty_steers_away(self, cluster):
        # node0 would win the tie-break, but give it failure history.
        monitor = cluster.node("node0").monitor
        monitor.note_failure("quarantined")
        cluster.attach("a", 1 << 20)
        assert cluster.tenants["a"].node.node_id == "node1"

    def test_zero_penalty_ignores_history(self):
        cluster = GuardianCluster(2)
        cluster.node("node0").monitor.note_failure("quarantined")
        with mock.patch.object(placement, "FAILURE_PENALTY", 0.0):
            cluster.attach("a", 1 << 20)
        assert cluster.tenants["a"].node.node_id == "node0"

    def test_admission_raises_when_fleet_full(self, cluster):
        from repro.errors import PartitionError

        total = cluster.node("node0").server.allocator.total_bytes
        for index in range(3):
            cluster.attach(f"hog{index}", total)
        with pytest.raises(PartitionError):
            cluster.attach("late", 1 << 20)
