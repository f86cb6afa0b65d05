"""Bounded admission: the backpressure knob.

It defaults off; the stock server behaves exactly as before (the
hypothesis properties pin the cycle totals, these tests pin the
semantics).
"""

import pytest

from repro.core.client import GuardianClient
from repro.core.server import GuardianServer, ServerConfig
from repro.errors import AdmissionRejected
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000


def make_server(**knobs):
    return GuardianServer(Device(QUADRO_RTX_A4000),
                          config=ServerConfig(**knobs))


class TestAdmissionGate:
    def test_defaults_off(self):
        config = ServerConfig()
        assert config.max_resident_tenants is None

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
