"""GuardianServer tests (paper §4.2)."""

import numpy as np
import pytest

from repro.errors import (
    BoundsViolation,
    GuardianError,
    LaunchError,
    PTXValidationError,
)
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.driver.fatbin import build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from tests.conftest import attack_module, saxpy_module


@pytest.fixture
def device():
    return Device(QUADRO_RTX_A4000)


@pytest.fixture
def server(device):
    return GuardianServer(device, FencingMode.BITWISE)


def attach(server, app_id, size=1 << 20):
    server.attach(app_id, size)
    return server.allocator.bounds.lookup(app_id)


class TestSetup:
    def test_reserves_all_device_memory(self, device):
        server = GuardianServer(device, FencingMode.BITWISE)
        assert device.allocator.bytes_free == 0
        assert server.allocator.total_bytes > 0

    def test_forces_ptx_jit(self, server):
        """Embedded cuBINs must never bypass patched PTX."""
        assert server.driver.force_ptx_jit

    def test_single_context(self, device, server):
        assert len(device.contexts) == 1


class TestTenantLifecycle:
    def test_attach_creates_partition_and_stream(self, server):
        record = attach(server, "alice")
        assert record.size == 1 << 20
        assert server.tenant_count == 1

    def test_double_attach_rejected(self, server):
        attach(server, "alice")
        with pytest.raises(GuardianError):
            server.attach("alice", 1 << 20)

    def test_detach_releases_partition(self, server):
        attach(server, "alice")
        server.detach("alice")
        assert server.tenant_count == 0
        record = attach(server, "bob", 1 << 20)
        assert record is not None

    def test_tenants_get_distinct_streams(self, server):
        attach(server, "alice")
        attach(server, "bob")
        alice_stream, _ = server.create_stream("alice")
        bob_stream, _ = server.create_stream("bob")
        assert alice_stream != bob_stream


class TestMemoryOps:
    def test_malloc_inside_partition(self, server):
        record = attach(server, "alice")
        address, _ = server.malloc("alice", 4096)
        assert record.contains(address, 4096)

    def test_transfer_checks(self, server):
        attach(server, "alice")
        attach(server, "mallory")
        alice_buf, _ = server.malloc("alice", 256)
        with pytest.raises(BoundsViolation):
            server.memcpy_h2d("mallory", alice_buf, b"x" * 16)
        assert server.stats.transfers_rejected == 1

    def test_d2h_source_checked(self, server):
        attach(server, "alice")
        attach(server, "mallory")
        alice_buf, _ = server.malloc("alice", 256)
        server.memcpy_h2d("alice", alice_buf, b"s3cret!" + b"\x00" * 249)
        with pytest.raises(BoundsViolation):
            server.memcpy_d2h("mallory", alice_buf, 256)

    def test_d2d_checks_both_ends(self, server):
        attach(server, "alice")
        attach(server, "mallory")
        alice_buf, _ = server.malloc("alice", 256)
        mallory_buf, _ = server.malloc("mallory", 256)
        with pytest.raises(BoundsViolation):
            server.memcpy_d2d("mallory", mallory_buf, alice_buf, 256)
        with pytest.raises(BoundsViolation):
            server.memcpy_d2d("mallory", alice_buf, mallory_buf, 256)

    def test_memset_checked(self, server):
        attach(server, "alice")
        attach(server, "mallory")
        alice_buf, _ = server.malloc("alice", 256)
        with pytest.raises(BoundsViolation):
            server.memset("mallory", alice_buf, 0, 256)

    def test_partial_overlap_rejected(self, server):
        """A transfer straddling the partition end is fenced."""
        record = attach(server, "alice")
        tail = record.end - 64
        with pytest.raises(BoundsViolation):
            server.memcpy_h2d("alice", tail, b"x" * 128)

    def test_legal_transfer_passes(self, server):
        attach(server, "alice")
        buf, _ = server.malloc("alice", 256)
        server.memcpy_h2d("alice", buf, b"y" * 256)
        data, _ = server.memcpy_d2h("alice", buf, 256)
        assert data == b"y" * 256


class TestKernelPath:
    def test_register_patches_and_loads_both_variants(self, server):
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        assert "saxpy" in handles
        assert server.stats.modules_loaded == 2  # sandboxed + native
        assert server.stats.kernels_patched == 1

    def test_cubin_only_fatbin_rejected(self, server):
        """Guardian cannot sandbox binaries without PTX."""
        from repro.driver.fatbin import FatBinary, FatbinEntry

        attach(server, "alice")
        cubin_only = FatBinary(name="old", entries=[
            FatbinEntry(kind="cubin", arch="ampere", payload=b"\x00"),
        ])
        with pytest.raises(GuardianError, match="cuBIN-only"):
            server.register_fatbin("alice", cubin_only)

    def test_launch_executes_sandboxed_kernel(self, server, device):
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        xs = np.ones(32, dtype=np.float32)
        server.memcpy_h2d("alice", buf + 256, xs.tobytes())
        server.launch_kernel("alice", handles["saxpy"],
                             (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 4.0, 32])
        data, _ = server.memcpy_d2h("alice", buf, 128)
        assert np.allclose(np.frombuffer(data, np.float32), 4.0)

    def test_unknown_handle_rejected(self, server):
        attach(server, "alice")
        with pytest.raises(LaunchError):
            server.launch_kernel("alice", 0x9999, (1, 1, 1), (1, 1, 1),
                                 [])

    def test_handles_are_per_tenant(self, server):
        attach(server, "alice")
        attach(server, "bob")
        fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
        alice_handles, _ = server.register_fatbin("alice", fatbin)
        with pytest.raises(LaunchError):
            server.launch_kernel("bob", alice_handles["saxpy"],
                                 (1, 1, 1), (1, 1, 1),
                                 [0, 0, 1.0, 0])

    def test_launch_cost_matches_table5(self, server):
        """lookup + augment + syscall cycles per launch (Table 5)."""
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        _, cycles = server.launch_kernel(
            "alice", handles["saxpy"], (1, 1, 1), (32, 1, 1),
            [buf, buf + 256, 1.0, 32])
        expected = (server.costs.lookup + server.costs.augment
                    + server.costs.launch_syscall)
        assert cycles == expected

    def test_noprot_mode_skips_augment(self, device):
        server = GuardianServer(device, FencingMode.NONE)
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        _, cycles = server.launch_kernel(
            "alice", handles["saxpy"], (1, 1, 1), (32, 1, 1),
            [buf, buf + 256, 1.0, 32])
        assert cycles == (server.costs.lookup
                          + server.costs.launch_syscall)
        assert server.stats.native_launches == 1


class TestDetachAndSynchronize:
    def test_detach_destroys_tenant_stream(self, device, server):
        attach(server, "alice")
        stream = server._tenants["alice"].stream
        context = server.context
        assert stream in context.streams
        server.detach("alice")
        assert stream not in context.streams
        assert server.stats.streams_destroyed == 1

    def test_detach_drops_function_handles(self, server):
        attach(server, "alice")
        server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        tenant = server._tenants["alice"]
        assert tenant.functions
        server.detach("alice")
        assert not tenant.functions
        assert not tenant.patch_reports

    def test_detach_unknown_app_is_a_noop(self, server):
        server.detach("ghost")  # must not raise
        assert server.stats.streams_destroyed == 0

    def test_synchronize_requires_attached_tenant(self, server):
        with pytest.raises(GuardianError):
            server.synchronize("ghost")

    def test_synchronize_drains_the_tenants_stream(self, server, device):
        attach(server, "alice")
        buf, _ = server.malloc("alice", 256)
        server.memcpy_h2d("alice", buf, b"x" * 256)
        server.memcpy_h2d("alice", buf, b"y" * 256)
        server.synchronize("alice")
        assert server.stats.syncs == 1
        assert server.stats.sync_drained_tasks == 2

    def test_synchronize_counts_only_own_stream(self, server):
        attach(server, "alice")
        attach(server, "bob")
        alice_buf, _ = server.malloc("alice", 256)
        bob_buf, _ = server.malloc("bob", 256)
        server.memcpy_h2d("alice", alice_buf, b"x" * 256)
        server.memcpy_h2d("bob", bob_buf, b"y" * 256)
        server.synchronize("alice")
        assert server.stats.sync_drained_tasks == 1


class TestStandaloneNativeOptimisation:
    """'When the gSafeServer detects that an application runs
    standalone, it issues a native kernel' (§4.2.3)."""

    def test_standalone_uses_native(self, device):
        server = GuardianServer(device, FencingMode.BITWISE,
                                standalone_native=True)
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        server.launch_kernel("alice", handles["saxpy"],
                             (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 1.0, 32])
        assert server.stats.native_launches == 1

    def test_second_tenant_switches_to_sandboxed(self, device):
        server = GuardianServer(device, FencingMode.BITWISE,
                                standalone_native=True)
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        attach(server, "bob")  # no longer standalone
        server.launch_kernel("alice", handles["saxpy"],
                             (1, 1, 1), (32, 1, 1),
                             [buf, buf + 256, 1.0, 32])
        assert server.stats.native_launches == 0


class TestModuleGlobalsPlacement:
    def test_globals_live_inside_tenant_partition(self, server):
        ptx = (
            ".version 7.5\n.target sm_86\n.address_size 64\n"
            ".global .align 4 .f32 weights[16];\n"
            ".visible .entry k()\n{\n.reg .b64 %rd<2>;\n"
            "mov.u64 %rd1, weights;\nret;\n}"
        )
        record = attach(server, "alice")
        server.load_module_ptx("alice", ptx)
        # The partition heap gained the global array.
        partition = server.allocator.partition("alice")
        assert partition.heap.bytes_in_use >= 64


class TestOperandCounts:
    """A tenant's instruction with the wrong number of operands is
    refused at load, naming the instruction; it never reaches an
    engine, and a neighbour's launches are untouched."""

    @pytest.mark.parametrize("line", [
        "and.b64 %rd2, %rd1;",
        "mad.lo.s32 %r1, %r2, %r3;",
        "st.global.u32 [%rd1];",
        "setp.lt.u32 %p1, %r1;",
    ])
    def test_load_is_refused(self, server, line):
        attach(server, "alice")
        handles, _ = server.register_fatbin(
            "alice", build_fatbin(saxpy_module(), "lib", "11.7"))
        buf, _ = server.malloc("alice", 512)
        attach(server, "mallory")
        ptx = (
            ".version 7.5\n.target sm_86\n.address_size 64\n"
            ".visible .entry k(.param .u64 k_p0)\n{\n"
            ".reg .pred %p<2>;\n.reg .b32 %r<4>;\n.reg .b64 %rd<3>;\n"
            "ld.param.u64 %rd1, [k_p0];\nmov.u32 %r2, 3;\n"
            f"mov.u32 %r3, 4;\n{line}\nret;\n}}"
        )
        opcode = line.split()[0]
        with pytest.raises(PTXValidationError, match=opcode):
            server.load_module_ptx("mallory", ptx)
        server.launch_kernel("alice", handles["saxpy"], (1, 1, 1),
                             (32, 1, 1), [buf, buf + 256, 1.0, 32])
        server.synchronize("alice")
        assert server.stats.launches == 1
        assert server.stats.kernels_killed == 0


class TestQuarantineIdempotency:
    def test_second_quarantine_is_noop(self, server):
        attach(server, "alice")
        first = server.quarantine("alice", reason="supervisor")
        second = server.quarantine("alice", reason="cluster drain")
        assert first == 1 << 20
        assert second == 0
        assert server.stats.tenants_quarantined == 1
        assert server.stats.bytes_scrubbed == 1 << 20

    def test_unknown_tenant_is_noop(self, server):
        assert server.quarantine("ghost") == 0
        assert server.stats.tenants_quarantined == 0

    def test_stale_incarnation_spares_the_newcomer(self, server):
        """A quarantine decision made against an earlier attach must
        not evict the new instance that reused the name."""
        attach(server, "alice")
        observed = server._tenants["alice"].incarnation
        server.detach("alice")
        attach(server, "alice")  # a new instance takes the name
        assert server.quarantine("alice", incarnation=observed) == 0
        assert server.tenant_count == 1
        assert server.stats.tenants_quarantined == 0

    def test_current_incarnation_is_honoured(self, server):
        attach(server, "alice")
        current = server._tenants["alice"].incarnation
        assert server.quarantine("alice", incarnation=current) == 1 << 20
        assert server.tenant_count == 0

    def test_incarnations_are_monotone(self, server):
        attach(server, "alice")
        first = server._tenants["alice"].incarnation
        server.detach("alice")
        attach(server, "alice")
        assert server._tenants["alice"].incarnation > first


class TestSnapshotRestore:
    def test_snapshot_is_readonly(self, server):
        attach(server, "alice")
        buf, _ = server.malloc("alice", 4096)
        server.memcpy_h2d("alice", buf, b"\xcd" * 4096)
        snapshot = server.snapshot_tenant("alice")
        assert snapshot.size == 1 << 20
        assert len(snapshot.data) == snapshot.size
        # Tenant still fully attached and serving.
        data, _ = server.memcpy_d2h("alice", buf, 4096)
        assert data == b"\xcd" * 4096

    def test_restore_on_fresh_server(self, server, device):
        attach(server, "alice")
        buf, _ = server.malloc("alice", 4096)
        server.memcpy_h2d("alice", buf, b"\xcd" * 4096)
        snapshot = server.snapshot_tenant("alice")
        peer = GuardianServer(Device(QUADRO_RTX_A4000),
                              FencingMode.BITWISE)
        new_base = peer.restore_tenant(snapshot)
        offset = buf - snapshot.source_base
        data, _ = peer.memcpy_d2h("alice", new_base + offset, 4096)
        assert data == b"\xcd" * 4096
        # Heap state travelled: the next malloc does not overlap.
        fresh, _ = peer.malloc("alice", 4096)
        assert fresh != new_base + offset

    def test_restore_refuses_mode_mismatch(self, server):
        attach(server, "alice")
        snapshot = server.snapshot_tenant("alice")
        peer = GuardianServer(Device(QUADRO_RTX_A4000),
                              FencingMode.CHECKING)
        from repro.errors import MigrationError
        with pytest.raises(MigrationError, match="fenced"):
            peer.restore_tenant(snapshot)

    def test_restore_refuses_double_attach(self, server):
        attach(server, "alice")
        snapshot = server.snapshot_tenant("alice")
        from repro.errors import MigrationError
        with pytest.raises(MigrationError, match="already attached"):
            server.restore_tenant(snapshot)
