"""GuardianClient + IPC channel tests (paper §4.1, §4.2.4)."""

import pytest

from repro.errors import ChannelClosedError, GuardianError, IPCError
from repro.core.client import GuardianClient, preload_guardian
from repro.core.ipc import IPCChannel, IPCCostModel
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.runtime.api import CudaRuntime
from repro.runtime.interpose import LIBCUDA, DynamicLoader


@pytest.fixture
def server():
    return GuardianServer(Device(QUADRO_RTX_A4000), FencingMode.BITWISE)


class TestIPCChannel:
    class _Echo:
        def ping(self, app_id, value):
            return value * 2, 100

    def test_call_dispatch(self):
        channel = IPCChannel(self._Echo(), "app")
        assert channel.call("ping", 21) == 42

    def test_unknown_method(self):
        channel = IPCChannel(self._Echo(), "app")
        with pytest.raises(IPCError):
            channel.call("nonexistent")

    def test_closed_channel(self):
        channel = IPCChannel(self._Echo(), "app")
        channel.close()
        with pytest.raises(IPCError):
            channel.call("ping", 1)

    def test_call_after_close_raises_channel_closed(self):
        """The dead-client contract: a specific error type, not a hang
        or an AttributeError."""
        channel = IPCChannel(self._Echo(), "app")
        channel.close()
        with pytest.raises(ChannelClosedError, match="'app'"):
            channel.call("ping", 1)

    def test_close_is_idempotent(self):
        channel = IPCChannel(self._Echo(), "app", batching=True)
        channel.call("ping", 1, sync=False)
        assert channel.queued_calls == 1
        channel.close()
        channel.close()
        channel.close()
        assert channel.closed
        # The batch was delivered exactly once.
        assert channel.stats.batches == 1
        assert channel.stats.batched_messages == 1

    def test_close_marks_closed_even_when_flush_raises(self):
        class Exploder:
            def boom(self, app_id):
                raise GuardianError("server-side failure")

        channel = IPCChannel(Exploder(), "app", batching=True)
        channel.call("boom", sync=False)
        with pytest.raises(GuardianError):
            channel.close()
        assert channel.closed
        channel.close()  # second close: clean no-op
        with pytest.raises(ChannelClosedError):
            channel.call("boom", sync=False)

    def test_abort_discards_pending_batch(self):
        """A client that dies with a non-empty batch pending must not
        have that batch executed on its behalf."""
        delivered = []

        class Recorder:
            def op(self, app_id, value):
                delivered.append(value)
                return None, 10

        channel = IPCChannel(Recorder(), "app", batching=True)
        channel.call("op", 1, sync=False)
        channel.call("op", 2, sync=False)
        assert channel.queued_calls == 2
        assert channel.abort() == 2
        assert delivered == []
        assert channel.stats.discarded_calls == 2
        assert channel.closed
        assert channel.abort() == 0  # idempotent too
        with pytest.raises(ChannelClosedError):
            channel.call("op", 3, sync=False)

    def test_sync_call_blocks_on_server(self):
        costs = IPCCostModel()
        channel = IPCChannel(self._Echo(), "app")
        channel.call("ping", 1, sync=True)
        assert channel.stats.client_cycles == (
            costs.roundtrip + costs.marshal + 100)

    def test_async_call_pays_send_half_only(self):
        costs = IPCCostModel()
        channel = IPCChannel(self._Echo(), "app")
        channel.call("ping", 1, sync=False)
        assert channel.stats.client_cycles == (
            costs.roundtrip // 2 + costs.marshal)
        assert channel.stats.server_cycles == 100

    def test_payload_cycles(self):
        costs = IPCCostModel()
        channel = IPCChannel(self._Echo(), "app")
        channel.call("ping", 1, payload_bytes=800)
        assert channel.stats.client_cycles == pytest.approx(
            costs.roundtrip + costs.marshal + 800 // costs.bytes_per_cycle
            + 100)
        assert channel.stats.payload_bytes == 800


class TestGuardianClient:
    def test_attach_on_construction(self, server):
        GuardianClient(server, "alice", 1 << 20)
        assert server.tenant_count == 1

    def test_backend_interface_complete(self, server):
        """The shim must satisfy the whole driver-level surface, or a
        library call would hit the real driver mid-run."""
        from repro.runtime.backend import GpuBackend

        client = GuardianClient(server, "alice", 1 << 20)
        assert isinstance(client, GpuBackend)

    def test_malloc_free_through_ipc(self, server):
        client = GuardianClient(server, "alice", 1 << 20)
        address = client.malloc(4096)
        record = server.allocator.bounds.lookup("alice")
        assert record.contains(address, 4096)
        client.free(address)

    def test_close_detaches(self, server):
        client = GuardianClient(server, "alice", 1 << 20)
        client.close()
        assert server.tenant_count == 0
        with pytest.raises(IPCError):
            client.malloc(64)

    def test_overhead_accumulates(self, server):
        client = GuardianClient(server, "alice", 1 << 20)
        before = client.profile.cycles
        client.malloc(64)
        assert client.profile.cycles > before

    def test_device_spec_cached(self, server):
        client = GuardianClient(server, "alice", 1 << 20)
        first = client.device_spec()
        messages = client.channel.stats.messages
        second = client.device_spec()
        assert first is second
        assert client.channel.stats.messages == messages

    def test_unknown_export_table(self, server):
        client = GuardianClient(server, "alice", 1 << 20)
        with pytest.raises(GuardianError, match="minimal"):
            client.get_export_table("bogus-uuid")


class TestPreload:
    def test_preload_interposes_runtime(self, server):
        loader = DynamicLoader()
        client = preload_guardian(loader, server, "alice", 1 << 20)
        runtime = CudaRuntime(loader)
        assert runtime.backend is client

    def test_runtime_calls_reach_server(self, server):
        loader = DynamicLoader()
        preload_guardian(loader, server, "alice", 1 << 20)
        runtime = CudaRuntime(loader)
        address = runtime.cudaMalloc(1024)
        record = server.allocator.bounds.lookup("alice")
        assert record.contains(address, 1024)

    def test_dlopen_returns_shim(self, server):
        """Libraries dlopen()ing the driver get the shim — the hook of
        §4.1."""
        loader = DynamicLoader()
        client = preload_guardian(loader, server, "alice", 1 << 20)
        assert loader.dlopen(LIBCUDA) is client
        assert loader.resolutions[-1] == (LIBCUDA, True)
