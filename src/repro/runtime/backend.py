"""The driver-level backend interface.

This is the seam Guardian interposes on: the set of operations the CUDA
runtime and accelerated libraries ultimately issue to the driver
library. :class:`NativeBackend` routes them straight to the simulated
device (the unprotected default); Guardian's
:class:`repro.core.client.GuardianClient` implements the same interface
but forwards every call over IPC to the GuardianServer.

Everything crossing this interface uses plain values (ints, bytes,
tuples) — exactly what can cross a process boundary — so swapping the
backend is transparent to all callers, closed-source libraries
included.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.errors import DriverError
from repro.driver.api import DriverAPI
from repro.driver.fatbin import FatBinary
from repro.gpu.context import Context
from repro.gpu.device import Device


#: Host CPU frequency assumed throughout the cost models (GHz).
CPU_GHZ = 3.0


@dataclass(frozen=True)
class DriverCostModel:
    """CPU cycles the *driver library* spends per operation.

    ``launch`` is the paper's measured ~9000 cycles for the native
    ``cudaLaunchKernel`` system call (Table 5, "Launch kernel to GPU").
    Under Guardian these costs move into the server process; a backend
    must charge them into its :class:`BackendProfile` so deployments
    can compare like with like.
    """

    launch: int = 9_000
    malloc: int = 2_000
    free: int = 1_500
    memcpy: int = 1_800
    stream_create: int = 1_000
    module_load: int = 4_000


@dataclass
class BackendProfile:
    """Host cycles spent below the runtime API surface."""

    cycles: float = 0.0
    calls: dict[str, int] = field(default_factory=dict)

    def charge(self, operation: str, cycles: float) -> None:
        self.cycles += cycles
        self.calls[operation] = self.calls.get(operation, 0) + 1


class GpuBackend(abc.ABC):
    """Driver-level operations, as seen by one application process."""

    @abc.abstractmethod
    def malloc(self, size: int) -> int:
        """Allocate device memory; returns the device address."""

    @abc.abstractmethod
    def free(self, address: int) -> None:
        """Release device memory."""

    @abc.abstractmethod
    def memcpy_h2d(self, dst: int, data: bytes, stream_id: int = 0) -> None:
        """Copy host bytes to the device."""

    @abc.abstractmethod
    def memcpy_d2h(self, src: int, size: int, stream_id: int = 0) -> bytes:
        """Copy device bytes to the host."""

    @abc.abstractmethod
    def memcpy_d2d(self, dst: int, src: int, size: int,
                   stream_id: int = 0) -> None:
        """Copy within device memory."""

    @abc.abstractmethod
    def memset(self, dst: int, value: int, size: int,
               stream_id: int = 0) -> None:
        """Fill device memory with a byte value (cudaMemset)."""

    @abc.abstractmethod
    def register_fatbin(self, fatbin: FatBinary) -> dict[str, int]:
        """Load a binary's device code; returns kernel-name -> handle."""

    @abc.abstractmethod
    def load_module_ptx(self, ptx_text: str) -> dict[str, int]:
        """Explicit PTX load (driver-API path); name -> handle."""

    @abc.abstractmethod
    def launch_kernel(
        self,
        handle: int,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: list,
        stream_id: int = 0,
    ) -> None:
        """Launch a kernel by handle."""

    @abc.abstractmethod
    def create_stream(self) -> int:
        """Create a stream; returns its id."""

    @abc.abstractmethod
    def get_export_table(self, table_uuid: str) -> dict:
        """The undocumented cudaGetExportTable()."""

    @abc.abstractmethod
    def synchronize(self) -> None:
        """Wait for outstanding work (host-visible ordering point)."""

    @abc.abstractmethod
    def device_spec(self):
        """The DeviceSpec of the GPU this backend reaches."""


class NativeBackend(GpuBackend):
    """Unmodified CUDA path: one private context, direct device access.

    Each application process using the native backend gets its *own*
    GPU context, so co-running applications time-share the device with
    hardware protection — the paper's ``Native`` baseline.
    """

    def __init__(self, device: Device, app_id: str = "app"):
        self.device = device
        self.app_id = app_id
        self.driver = DriverAPI(device)
        self.context: Context = self.driver.cuCtxCreate(app_id)
        self.costs = DriverCostModel()
        self.profile = BackendProfile()
        # Host->device clock ratio for submission release times.
        self._clock_ratio = device.spec.clock_ghz / CPU_GHZ
        self._streams = {0: self.context.default_stream}
        self._functions: dict[int, object] = {}
        self._export_tables = None

    # -- memory ---------------------------------------------------------------

    def malloc(self, size: int) -> int:
        self.profile.charge("malloc", self.costs.malloc)
        return self.driver.cuMemAlloc(self.context, size)

    def free(self, address: int) -> None:
        self.profile.charge("free", self.costs.free)
        self.driver.cuMemFree(self.context, address)

    def _release(self) -> float:
        """Device-clock instant at which the host has issued this call."""
        return self.profile.cycles * self._clock_ratio

    def memcpy_h2d(self, dst: int, data: bytes, stream_id: int = 0) -> None:
        self.profile.charge("memcpy_h2d", self.costs.memcpy)
        self.driver.cuMemcpyHtoD(self._stream(stream_id), dst, data,
                                 tag=self.app_id,
                                 release_cycles=self._release())

    def memcpy_d2h(self, src: int, size: int, stream_id: int = 0) -> bytes:
        self.profile.charge("memcpy_d2h", self.costs.memcpy)
        return self.driver.cuMemcpyDtoH(self._stream(stream_id), src, size,
                                        tag=self.app_id,
                                        release_cycles=self._release())

    def memcpy_d2d(self, dst: int, src: int, size: int,
                   stream_id: int = 0) -> None:
        self.profile.charge("memcpy_d2d", self.costs.memcpy)
        self.driver.cuMemcpyDtoD(self._stream(stream_id), dst, src, size,
                                 tag=self.app_id,
                                 release_cycles=self._release())

    def memset(self, dst: int, value: int, size: int,
               stream_id: int = 0) -> None:
        self.profile.charge("memset", self.costs.memcpy)
        self.driver.cuMemsetD8(self._stream(stream_id), dst, value, size,
                               tag=self.app_id,
                               release_cycles=self._release())

    # -- modules & kernels ------------------------------------------------------

    def register_fatbin(self, fatbin: FatBinary) -> dict[str, int]:
        # JIT compilation cycles are *initialisation*, excluded from
        # measured host time in every deployment (the paper's server
        # likewise compiles sandboxed PTX at startup, §4.4); they stay
        # observable in DriverAPI.stats.jit_cycles for the ablation
        # benchmark.
        self.profile.charge("module_load", self.costs.module_load)
        module = self.driver.cuModuleLoadFatBinary(self.context, fatbin)
        return self._handles_for(module)

    def load_module_ptx(self, ptx_text: str) -> dict[str, int]:
        self.profile.charge("module_load", self.costs.module_load)
        module = self.driver.cuModuleLoadData(self.context, ptx_text)
        return self._handles_for(module)

    def _handles_for(self, module) -> dict[str, int]:
        handles = {}
        for name in module.kernel_names():
            function = self.driver.cuModuleGetFunction(module, name)
            self._functions[function.handle] = function
            handles[name] = function.handle
        return handles

    def launch_kernel(self, handle, grid, block, params,
                      stream_id: int = 0) -> None:
        self.profile.charge("launch", self.costs.launch)
        function = self._functions.get(handle)
        if function is None:
            raise DriverError(f"invalid function handle {handle:#x}")
        self.driver.cuLaunchKernel(
            function, grid, block, params, self._stream(stream_id),
            tag=self.app_id, release_cycles=self._release(),
        )

    # -- streams / misc ------------------------------------------------------------

    def create_stream(self) -> int:
        self.profile.charge("stream_create", self.costs.stream_create)
        stream = self.driver.cuStreamCreate(self.context)
        self._streams[stream.stream_id] = stream
        return stream.stream_id

    def _stream(self, stream_id: int):
        try:
            return self._streams[stream_id]
        except KeyError:
            raise DriverError(f"unknown stream {stream_id}") from None

    def get_export_table(self, table_uuid: str) -> dict:
        # Built lazily to avoid a circular import at module load.
        if self._export_tables is None:
            from repro.runtime.export_table import build_export_tables

            self._export_tables = build_export_tables(self)
        try:
            return self._export_tables[table_uuid]
        except KeyError:
            raise DriverError(
                f"unknown export table {table_uuid!r}"
            ) from None

    def synchronize(self) -> None:
        # Functional effects are applied at submission; timing is
        # resolved by the deployment harness. Nothing to do here.
        return None

    def device_spec(self):
        return self.device.spec
