"""Live tenant migration: snapshot, restore, rebind, and its limits."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, GuardianCluster, PlacementPolicy
from repro.core.policy import FencingMode
from repro.core.supervisor import SupervisorPolicy
from repro.errors import MigrationError, NodeDown, TransientIPCFault
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module

from tests.conftest import saxpy_kernel

PARTITION = 1 << 20


def saxpy_ptx():
    return emit_module(build_module([saxpy_kernel()]))


@pytest.fixture
def cluster():
    return GuardianCluster(2)


def attach_with_data(cluster, app_id=u"alice", fill=b"\xab"):
    session = cluster.attach(app_id, PARTITION)
    ptr = session.client.malloc(8192)
    session.client.memcpy_h2d(ptr, fill * 8192)
    return session, ptr


def other_node(cluster, session):
    return next(n for n in cluster.nodes
                if n.node_id != session.node.node_id)


class TestHappyPath:
    def test_bytes_survive(self, cluster):
        session, ptr = attach_with_data(cluster)
        assert cluster.migrate("alice", reason="test")
        assert session.client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192

    def test_partition_moves_nodes(self, cluster):
        session, _ = attach_with_data(cluster)
        source = session.node
        assert cluster.migrate("alice")
        assert session.node is not source
        assert "alice" not in source.resident_tenants()
        assert "alice" in session.node.resident_tenants()
        assert source.server.stats.tenants_migrated_out == 1
        assert session.node.server.stats.tenants_migrated_in == 1

    def test_source_residue_scrubbed(self, cluster):
        session, _ = attach_with_data(cluster)
        source = session.node
        assert cluster.migrate("alice")
        assert source.server.stats.bytes_scrubbed >= PARTITION

    def test_nonzero_delta_translation(self, cluster):
        """With a pad occupying the target's first slot, the restored
        base differs from the origin: every client op still works on
        the tenant's original (virtual) pointers."""
        cluster.attach("pad", 1 << 21)  # lands on node0 with alice
        session, ptr = attach_with_data(cluster)
        target = other_node(cluster, session)
        assert cluster.migrate("alice", target=target)
        client = session.client
        assert client.delta != 0
        assert client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192
        fresh = client.malloc(4096)
        client.memset(fresh, 0x5A, 4096)
        assert client.memcpy_d2h(fresh, 4096) == b"\x5a" * 4096
        client.free(fresh)

    def test_kernel_launch_after_migration(self, cluster):
        """Kernel pointer params stay virtual — the bitwise fence
        relocates them onto the new base."""
        cluster.attach("pad", 1 << 21)
        session, _ = attach_with_data(cluster)
        client = session.client
        handles = client.load_module_ptx(saxpy_ptx())
        buf = client.malloc(512)
        client.memcpy_h2d(buf + 256,
                          np.ones(32, dtype=np.float32).tobytes())
        client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 4.0, 32])
        assert cluster.migrate(
            "alice", target=other_node(cluster, session))
        assert client.delta != 0
        # Same handle, same virtual pointers, on the new node.
        client.launch_kernel(handles["saxpy"], (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 2.0, 32])
        out = np.frombuffer(client.memcpy_d2h(buf, 128), np.float32)
        assert np.allclose(out, 6.0)

    def test_module_handles_survive(self, cluster):
        session, _ = attach_with_data(cluster)
        handles = session.client.load_module_ptx(saxpy_ptx())
        assert cluster.migrate("alice")
        # The restored tenant resolves the same handle numbers.
        target = session.node
        assert set(handles.values()) <= set(
            target.server._tenants["alice"].functions)

    def test_bounds_republished_at_new_base(self, cluster):
        cluster.attach("pad", 1 << 21)
        session, _ = attach_with_data(cluster)
        source_record = session.node.server.allocator.bounds.read("alice")
        target = other_node(cluster, session)
        assert cluster.migrate("alice", target=target)
        record = target.server.allocator.bounds.read("alice")
        assert record.base != source_record.base
        assert record.size == source_record.size

    def test_migration_record_models_pcie_cost(self, cluster):
        attach_with_data(cluster)
        assert cluster.migrate("alice")
        record = cluster.migrations[-1]
        assert record.success
        assert record.bytes_moved == PARTITION
        assert record.transfer_seconds > 0

    def test_client_tracks_migration_count(self, cluster):
        session, _ = attach_with_data(cluster)
        assert session.client.rebases == 0
        cluster.migrate("alice")
        assert session.client.rebases == 1


class TestFailurePaths:
    def test_truncated_snapshot_aborts_cleanly(self, cluster):
        """A partial snapshot (injected fault) must leave the tenant
        attached to its source, untouched."""
        plan = FaultPlan(seed=7, specs=[FaultSpec(
            kind=FaultKind.SNAPSHOT_PARTIAL, tenant="node0",
            op="migrate", at_call=1,
        )])
        cluster = GuardianCluster(2, fault_plan=plan)
        session, ptr = attach_with_data(cluster)
        assert session.node.node_id == "node0"
        assert not cluster.migrate("alice", reason="doomed")
        record = cluster.migrations[-1]
        assert not record.success and "snapshot carries" in record.detail
        # Tenant untouched on the source.
        assert session.node.node_id == "node0"
        assert session.client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192
        # Second attempt (fault spec exhausted) succeeds.
        assert cluster.migrate("alice", reason="retry")

    def test_no_target_fails_without_side_effects(self):
        cluster = GuardianCluster(1)
        session, ptr = attach_with_data(cluster)
        assert not cluster.migrate("alice")
        assert cluster.migrations[-1].detail == "no eligible target node"
        assert session.client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192

    def test_unknown_tenant_is_false(self, cluster):
        assert not cluster.migrate("ghost")

    def test_source_crash_mid_migration_tenant_survives(self):
        """Copy-then-switch: the source dying after the snapshot cut
        does not lose the tenant."""
        plan = FaultPlan(seed=7, specs=[FaultSpec(
            kind=FaultKind.NODE_CRASH, tenant="node0",
            op="migrate", at_call=1,
        )])
        cluster = GuardianCluster(2, fault_plan=plan)
        session, ptr = attach_with_data(cluster)
        assert cluster.migrate("alice", reason="crash mid-copy")
        assert cluster.node("node0").crashed
        assert session.node.node_id == "node1"
        assert session.client.memcpy_d2h(ptr, 8192) == b"\xab" * 8192

    def test_ops_on_crashed_node_raise_nodedown(self, cluster):
        session, ptr = attach_with_data(cluster)
        session.node.crash("power loss")
        with pytest.raises(NodeDown):
            session.client.memcpy_d2h(ptr, 8192)

    def test_migration_requires_bitwise_fence(self):
        with pytest.raises(MigrationError, match="BITWISE"):
            GuardianCluster(2, config=ClusterConfig(
                mode=FencingMode.CHECKING))

    def test_non_bitwise_allowed_without_migration(self):
        cluster = GuardianCluster(2, config=ClusterConfig(
            mode=FencingMode.CHECKING, enable_migration=False))
        cluster.attach("alice", PARTITION)


class TestSupervisorRung:
    def test_budget_pressure_triggers_migration(self):
        """A tenant burning fault budget is moved (not evicted) once
        it crosses the migrate fraction."""
        plan = FaultPlan(seed=3, specs=[FaultSpec(
            kind=FaultKind.IPC_DROP, tenant="alice", op="memcpy_h2d",
            at_call=1, times=30,
        )])
        policy = SupervisorPolicy(
            migrate_budget_fraction=0.25, backoff_jitter=0.0,
        )
        cluster = GuardianCluster(
            2,
            config=ClusterConfig(
                supervisor_policy=policy,
                placement=PlacementPolicy(pack=False),
            ),
            fault_plan=plan,
        )
        session = cluster.attach("alice", PARTITION)
        ptr = session.client.malloc(8192)
        source = session.node
        # The drop exhausts its retries: weight 4.0 against the 8.0
        # budget crosses the 0.25 migrate fraction, so the supervisor
        # moves the tenant as the failing call unwinds.
        with pytest.raises(TransientIPCFault):
            session.client.memcpy_h2d(ptr, b"\x01" * 8192)
        assert session.client.rebases == 1
        assert session.node is not source
        actions = [r.action for r in source.supervisor.records]
        assert "migrated" in actions
        # The moved tenant keeps working on the new node.
        session.client.memcpy_h2d(ptr, b"\x02" * 8192)
        assert session.client.memcpy_d2h(ptr, 8192) == b"\x02" * 8192


class TestDetachAndEvacuate:
    def test_detach_after_migration(self, cluster):
        session, _ = attach_with_data(cluster)
        cluster.migrate("alice")
        node = session.node
        cluster.detach("alice")
        assert "alice" not in node.resident_tenants()
        assert "alice" not in cluster.tenants

    def test_evacuate_is_idempotent(self, cluster):
        session, _ = attach_with_data(cluster)
        server = session.node.server
        assert server.evacuate("alice") == PARTITION
        assert server.evacuate("alice") == 0
