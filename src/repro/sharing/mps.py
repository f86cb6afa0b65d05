"""An NVIDIA MPS-like sharing server (unprotected spatial baseline).

MPS funnels all clients into one GPU context so their kernels run
concurrently — with **no memory isolation**: allocations from different
clients interleave in the same address space, and nothing stops a
kernel from dereferencing into a neighbour's buffer (the paper's
Fig. 2 scenario, which the isolation tests demonstrate).

Cost model: like Guardian, MPS is an API-remoting server; every call
pays the IPC round-trip plus server-side dispatch. Its per-launch
dispatch (client scheduling, resource-limit accounting, command
validation) is charged at :data:`MPS_LAUNCH_DISPATCH_CYCLES` — a bit
more than Guardian's bare pointerToSymbol lookup, which is how the
paper's observation that "G-Safe without protection performs better
than MPS in workloads with thousands of pending kernels" (§6.1)
emerges: both servers serialise all clients' submissions, so the
per-launch difference compounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import DriverError
from repro.core.ipc import IPCChannel, IPCCostModel
from repro.driver.api import DriverAPI
from repro.driver.fatbin import FatBinary
from repro.gpu.device import Device
from repro.runtime.backend import BackendProfile, GpuBackend

#: Server-side cycles per kernel launch (dispatch only, syscall apart).
MPS_LAUNCH_DISPATCH_CYCLES = 900
#: Server-side cycles for non-launch operations.
MPS_DISPATCH_CYCLES = 250
#: The native launch syscall the server finally performs.
MPS_LAUNCH_SYSCALL_CYCLES = 9_000
#: Ordinary driver work the daemon performs per memory operation.
MPS_DRIVER_MALLOC_CYCLES = 2_000
MPS_DRIVER_MEMCPY_CYCLES = 1_800


@dataclass
class MPSStats:
    launches: int = 0
    cycles: float = 0.0


@dataclass
class _MPSClientState:
    app_id: str
    stream: object
    functions: dict[int, object] = field(default_factory=dict)
    handle_counter: "itertools.count" = field(
        default_factory=lambda: itertools.count(0x8000)
    )


class MPSServer:
    """The MPS control daemon: one context, one stream per client."""

    def __init__(self, device: Device):
        self.device = device
        self.driver = DriverAPI(device)
        self.context = self.driver.cuCtxCreate("mps-server")
        self.stats = MPSStats()
        self._clients: dict[str, _MPSClientState] = {}
        from repro.runtime.backend import CPU_GHZ

        self._clock_ratio = device.spec.clock_ghz / CPU_GHZ

    def _release(self) -> float:
        return self.stats.cycles * self._clock_ratio

    def attach(self, app_id: str):
        if app_id in self._clients:
            raise DriverError(f"client {app_id!r} already attached")
        self._clients[app_id] = _MPSClientState(
            app_id=app_id,
            stream=self.driver.cuStreamCreate(self.context),
        )
        return None, MPS_DISPATCH_CYCLES

    def detach(self, app_id: str):
        self._clients.pop(app_id, None)
        return None, MPS_DISPATCH_CYCLES

    def _client(self, app_id: str) -> _MPSClientState:
        try:
            return self._clients[app_id]
        except KeyError:
            raise DriverError(f"unknown MPS client {app_id!r}") from None

    # -- unchecked operations: straight to the shared context -----------------

    def malloc(self, app_id: str, size: int):
        cycles = MPS_DISPATCH_CYCLES + MPS_DRIVER_MALLOC_CYCLES
        self._charge(cycles)
        # Allocations of all clients interleave in one address space —
        # the unprotected property Guardian exists to fix.
        return self.driver.cuMemAlloc(self.context, size), cycles

    def free(self, app_id: str, address: int):
        self._charge(MPS_DISPATCH_CYCLES)
        self.driver.cuMemFree(self.context, address)
        return None, MPS_DISPATCH_CYCLES

    def memcpy_h2d(self, app_id: str, dst: int, data: bytes,
                   stream_id: int = 0):
        self._charge(MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES)
        client = self._client(app_id)
        self.driver.cuMemcpyHtoD(client.stream, dst, data, tag=app_id,
                                 release_cycles=self._release())
        return None, MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES + MPS_DRIVER_MEMCPY_CYCLES

    def memcpy_d2h(self, app_id: str, src: int, size: int,
                   stream_id: int = 0):
        self._charge(MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES)
        client = self._client(app_id)
        return (self.driver.cuMemcpyDtoH(client.stream, src, size,
                                         tag=app_id,
                                         release_cycles=self._release()),
                MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES)

    def memcpy_d2d(self, app_id: str, dst: int, src: int, size: int,
                   stream_id: int = 0):
        self._charge(MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES)
        client = self._client(app_id)
        self.driver.cuMemcpyDtoD(client.stream, dst, src, size, tag=app_id,
                                 release_cycles=self._release())
        return None, MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES + MPS_DRIVER_MEMCPY_CYCLES

    def memset(self, app_id: str, dst: int, value: int, size: int,
               stream_id: int = 0):
        self._charge(MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES)
        client = self._client(app_id)
        self.driver.cuMemsetD8(client.stream, dst, value, size, tag=app_id,
                               release_cycles=self._release())
        return None, MPS_DISPATCH_CYCLES + MPS_DRIVER_MEMCPY_CYCLES

    def register_fatbin(self, app_id: str, fatbin: FatBinary):
        client = self._client(app_id)
        module = self.driver.cuModuleLoadFatBinary(self.context, fatbin)
        handles = {}
        for name in module.kernel_names():
            handle = next(client.handle_counter)
            client.functions[handle] = self.driver.cuModuleGetFunction(
                module, name)
            handles[name] = handle
        return handles, MPS_DISPATCH_CYCLES

    def load_module_ptx(self, app_id: str, ptx_text: str):
        client = self._client(app_id)
        module = self.driver.cuModuleLoadData(self.context, ptx_text)
        handles = {}
        for name in module.kernel_names():
            handle = next(client.handle_counter)
            client.functions[handle] = self.driver.cuModuleGetFunction(
                module, name)
            handles[name] = handle
        return handles, MPS_DISPATCH_CYCLES

    def launch_kernel(self, app_id: str, handle: int, grid: tuple,
                      block: tuple, params: list, stream_id: int = 0):
        client = self._client(app_id)
        function = client.functions.get(handle)
        if function is None:
            raise DriverError(
                f"MPS client {app_id!r}: bad handle {handle:#x}"
            )
        cycles = MPS_LAUNCH_DISPATCH_CYCLES + MPS_LAUNCH_SYSCALL_CYCLES
        self.stats.launches += 1
        self._charge(cycles)
        self.driver.cuLaunchKernel(function, grid, block, list(params),
                                   client.stream, tag=app_id,
                                   release_cycles=self._release())
        return None, cycles

    def create_stream(self, app_id: str):
        client = self._client(app_id)
        return client.stream.stream_id, MPS_DISPATCH_CYCLES

    def synchronize(self, app_id: str):
        return None, MPS_DISPATCH_CYCLES

    def get_spec(self, app_id: str):
        return self.device.spec, MPS_DISPATCH_CYCLES

    def _charge(self, cycles: float) -> None:
        self.stats.cycles += cycles


class MPSClient(GpuBackend):
    """A client process's view of the MPS daemon."""

    def __init__(self, server: MPSServer, app_id: str,
                 ipc_costs: IPCCostModel | None = None):
        self.app_id = app_id
        self.channel = IPCChannel(server, app_id, costs=ipc_costs)
        self.profile = BackendProfile()
        self._spec = None
        self._export_tables = None
        self._call("attach")

    def _call(self, method: str, *args, payload_bytes: int = 0,
              sync: bool = True):
        before = self.channel.stats.client_cycles
        result = self.channel.call(method, *args,
                                   payload_bytes=payload_bytes,
                                   sync=sync)
        self.profile.charge(
            method, self.channel.stats.client_cycles - before
        )
        return result

    def malloc(self, size: int) -> int:
        return self._call("malloc", size)

    def free(self, address: int) -> None:
        self._call("free", address)

    def memcpy_h2d(self, dst: int, data: bytes, stream_id: int = 0) -> None:
        self._call("memcpy_h2d", dst, data, stream_id,
                   payload_bytes=len(data), sync=False)

    def memcpy_d2h(self, src: int, size: int, stream_id: int = 0) -> bytes:
        return self._call("memcpy_d2h", src, size, stream_id,
                          payload_bytes=size)

    def memcpy_d2d(self, dst: int, src: int, size: int,
                   stream_id: int = 0) -> None:
        self._call("memcpy_d2d", dst, src, size, stream_id, sync=False)

    def memset(self, dst: int, value: int, size: int,
               stream_id: int = 0) -> None:
        self._call("memset", dst, value, size, stream_id, sync=False)

    def register_fatbin(self, fatbin: FatBinary) -> dict[str, int]:
        payload = sum(len(entry.payload) for entry in fatbin.entries)
        return self._call("register_fatbin", fatbin,
                          payload_bytes=payload)

    def load_module_ptx(self, ptx_text: str) -> dict[str, int]:
        return self._call("load_module_ptx", ptx_text,
                          payload_bytes=len(ptx_text))

    def launch_kernel(self, handle, grid, block, params,
                      stream_id: int = 0) -> None:
        self._call("launch_kernel", handle, grid, block, list(params),
                   stream_id, payload_bytes=8 * len(params), sync=False)

    def create_stream(self) -> int:
        return self._call("create_stream")

    def synchronize(self) -> None:
        self._call("synchronize")

    def get_export_table(self, table_uuid: str) -> dict:
        if self._export_tables is None:
            from repro.runtime.export_table import build_export_tables

            self._export_tables = build_export_tables(self)
        try:
            return self._export_tables[table_uuid]
        except KeyError:
            raise DriverError(
                f"unknown export table {table_uuid!r}"
            ) from None

    def device_spec(self):
        if self._spec is None:
            self._spec = self._call("get_spec")
        return self._spec
