"""Bounded admission and bounded IPC queues: the backpressure knobs.

Both default off; the stock server and channel behave exactly as
before (the hypothesis properties pin the cycle totals, these tests
pin the semantics).
"""

import pytest

from repro.core.client import GuardianClient
from repro.core.ipc import IPCChannel, IPCError
from repro.core.server import GuardianServer, ServerConfig
from repro.errors import AdmissionRejected, QueueSaturated
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000


def make_server(**knobs):
    return GuardianServer(Device(QUADRO_RTX_A4000),
                          config=ServerConfig(**knobs))


class TestAdmissionGate:
    def test_defaults_off(self):
        config = ServerConfig()
        assert config.max_resident_tenants is None
        channel = GuardianClient(make_server(), "t0", 1 << 20).channel
        assert channel.queue_limit is None
        assert channel.shed_overflow is False

    def test_gate_rejects_past_the_limit(self):
        server = make_server(max_resident_tenants=2)
        first = GuardianClient(server, "a", 1 << 20)
        GuardianClient(server, "b", 1 << 20)
        with pytest.raises(AdmissionRejected) as excinfo:
            GuardianClient(server, "c", 1 << 20)
        assert excinfo.value.resident == 2
        assert excinfo.value.limit == 2
        assert server.stats.admissions_rejected == 1
        # A rejected attach created nothing.
        assert "c" not in server.allocator.bounds.epochs()
        # Detach frees the slot.
        first.close()
        GuardianClient(server, "c", 1 << 20)
        assert server.stats.admissions_rejected == 1

    def test_rejection_leaves_residents_untouched(self):
        server = make_server(max_resident_tenants=1)
        client = GuardianClient(server, "resident", 1 << 20)
        buffer = client.malloc(256)
        epochs = server.allocator.bounds.epochs()
        cycles = server.stats.cycles
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                GuardianClient(server, "turned-away", 1 << 20)
        assert server.allocator.bounds.epochs() == epochs
        assert server.stats.cycles == cycles
        # The resident still works.
        client.memcpy_h2d(buffer, b"\x01" * 16)
        client.synchronize()


class TestBoundedIPCQueue:
    def batching_client(self, app_id="t0", **knobs):
        return GuardianClient(make_server(), app_id, 1 << 20,
                              batching=True, **knobs)

    def test_overflow_flushes_by_default(self):
        client = self.batching_client(queue_limit=2)
        buffer = client.malloc(64)
        for _ in range(5):
            client.memcpy_h2d(buffer, b"\x00" * 16)
        stats = client.channel.stats
        assert stats.overflow_flushes > 0
        assert stats.shed_calls == 0
        assert len(client.channel._queue) <= 2
        client.synchronize()
        client.close()

    def test_shed_overflow_raises_queue_saturated(self):
        client = self.batching_client(queue_limit=1, shed_overflow=True)
        buffer = client.malloc(64)
        client.memcpy_h2d(buffer, b"\x00" * 16)
        with pytest.raises(QueueSaturated) as excinfo:
            client.memcpy_h2d(buffer, b"\x00" * 16)
        assert excinfo.value.limit == 1
        assert client.channel.stats.shed_calls == 1
        # The shed call was dropped, not queued; a flush drains the
        # survivor and the channel keeps working.
        client.flush()
        client.memcpy_h2d(buffer, b"\x00" * 16)
        client.synchronize()
        client.close()

    def test_queue_limit_ignored_without_batching(self):
        # A synchronous channel never queues, so the bound never trips.
        client = GuardianClient(make_server(), "t0", 1 << 20,
                                queue_limit=1)
        buffer = client.malloc(64)
        for _ in range(4):
            client.memcpy_h2d(buffer, b"\x00" * 16)
        assert client.channel.stats.overflow_flushes == 0
        assert client.channel.stats.shed_calls == 0
        client.close()

    def test_rejects_bad_limit(self):
        with pytest.raises(IPCError):
            IPCChannel(object(), "t0", queue_limit=0)

    def test_rejects_shedding_an_unbounded_queue(self):
        with pytest.raises(IPCError, match="queue_limit"):
            IPCChannel(object(), "t0", shed_overflow=True)
        with pytest.raises(IPCError, match="queue_limit"):
            GuardianClient(make_server(), "t0", 1 << 20,
                           shed_overflow=True)
