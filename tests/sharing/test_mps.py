"""MPS baseline tests — the unprotected spatial-sharing model."""

import numpy as np
import pytest

from repro.errors import DriverError
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.runtime.api import CudaRuntime
from repro.runtime.backend import GpuBackend
from repro.runtime.interpose import LIBCUDA, DynamicLoader
from repro.sharing.mps import (
    MPS_DISPATCH_CYCLES,
    MPS_LAUNCH_DISPATCH_CYCLES,
    MPSClient,
    MPSServer,
)
from repro.driver.fatbin import build_fatbin

from tests.conftest import saxpy_module


@pytest.fixture
def mps():
    device = Device(QUADRO_RTX_A4000)
    return device, MPSServer(device)


def client_runtime(server, app_id):
    loader = DynamicLoader()
    loader.register(LIBCUDA, MPSClient(server, app_id))
    return CudaRuntime(loader)


class TestServer:
    def test_single_shared_context(self, mps):
        device, server = mps
        client_runtime(server, "a")
        client_runtime(server, "b")
        assert len(device.contexts) == 1

    def test_per_client_streams(self, mps):
        _, server = mps
        client_runtime(server, "a")
        client_runtime(server, "b")
        assert (server._clients["a"].stream.stream_id
                != server._clients["b"].stream.stream_id)

    def test_allocations_interleave_one_space(self, mps):
        """The unprotected property: clients' buffers are adjacent in
        one address space, nothing between them."""
        _, server = mps
        alice = client_runtime(server, "a")
        bob = client_runtime(server, "b")
        a1 = alice.cudaMalloc(4096)
        b1 = bob.cudaMalloc(4096)
        a2 = alice.cudaMalloc(4096)
        assert b1 == a1 + 4096
        assert a2 == b1 + 4096

    def test_duplicate_client_rejected(self, mps):
        _, server = mps
        client_runtime(server, "a")
        with pytest.raises(DriverError):
            MPSClient(server, "a")

    def test_handles_per_client(self, mps):
        _, server = mps
        alice = client_runtime(server, "a")
        bob = client_runtime(server, "b")
        fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
        alice_handles = alice.registerFatBinary(fatbin)
        with pytest.raises(DriverError):
            bob.cudaLaunchKernel(alice_handles["saxpy"],
                                 (1, 1, 1), (1, 1, 1), [0, 0, 1.0, 0])


class TestClient:
    def test_implements_backend_interface(self, mps):
        _, server = mps
        assert isinstance(MPSClient(server, "x"), GpuBackend)

    def test_unknown_export_table_is_a_driver_error(self, mps):
        _, server = mps
        with pytest.raises(DriverError, match="bogus-uuid"):
            MPSClient(server, "x").get_export_table("bogus-uuid")

    def test_end_to_end_kernel(self, mps):
        _, server = mps
        runtime = client_runtime(server, "a")
        handles = runtime.registerFatBinary(
            build_fatbin(saxpy_module(), "lib", "11.7"))
        buffer = runtime.cudaMalloc(512)
        runtime.cudaMemcpyH2D(
            buffer + 256, np.ones(32, dtype=np.float32).tobytes())
        runtime.cudaLaunchKernel(handles["saxpy"], (1, 1, 1),
                                 (32, 1, 1),
                                 [buffer, buffer + 256, 2.0, 32])
        out = np.frombuffer(runtime.cudaMemcpyD2H(buffer, 128),
                            dtype=np.float32)
        assert np.allclose(out, 2.0)

    def test_no_protection_no_patching(self, mps):
        """MPS launches the original kernel — no sandboxing exists."""
        device, server = mps
        runtime = client_runtime(server, "a")
        handles = runtime.registerFatBinary(
            build_fatbin(saxpy_module(), "lib", "11.7"))
        function = server._clients["a"].functions[handles["saxpy"]]
        opcodes = [i.opcode
                   for i in function.compiled.kernel.instructions()]
        assert "and.b64" not in opcodes


class TestCostModel:
    def test_launch_dispatch_exceeds_guardian_lookup(self):
        """MPS's per-launch daemon work exceeds Guardian's bare
        pointerToSymbol lookup — how 'no-protection beats MPS on
        kernel-heavy workloads' (§6.1) arises."""
        from repro.core.server import ServerCostModel

        assert MPS_LAUNCH_DISPATCH_CYCLES > ServerCostModel().lookup

    def test_server_busy_accumulates(self, mps):
        _, server = mps
        runtime = client_runtime(server, "a")
        before = server.stats.cycles
        runtime.cudaMalloc(64)
        assert server.stats.cycles > before
        assert server.stats.cycles - before >= MPS_DISPATCH_CYCLES
