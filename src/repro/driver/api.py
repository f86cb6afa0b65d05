"""The ``cu*`` driver call surface.

One :class:`DriverAPI` instance represents the driver library loaded in
one process, bound to one simulated device. CUDA accelerated libraries
obtain it with ``dlopen("libcuda.so")`` (see
:mod:`repro.runtime.interpose`) — the hook Guardian must intercept.

``force_ptx_jit`` mirrors the ``CUDA_FORCE_PTX_JIT`` environment
variable: when set, fatBIN loads ignore embedded cuBINs and JIT the PTX
(how Guardian guarantees its *patched* PTX is what executes, §2.2).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import DriverError
from repro.driver.fatbin import ARCHITECTURES, FatBinary
from repro.driver.jit import CompiledModule, jit_compile
from repro.driver.module import CUfunction, CUmodule
from repro.gpu.context import Context
from repro.gpu.device import Device
from repro.gpu.executor import LaunchResult
from repro.gpu.stream import Stream
from repro.ptx.ast import Module
import zlib


@dataclass
class DriverStats:
    """Driver-side counters (used by interception-coverage tests)."""

    modules_loaded: int = 0
    modules_from_cubin: int = 0
    kernels_launched: int = 0
    jit_cycles: int = 0
    #: Host-side facts, not model values (so not part of equality):
    #: loads whose module image had to be compiled, and loads that
    #: were a bind of one the process already had.
    images_built: int = field(default=0, compare=False)
    images_shared: int = field(default=0, compare=False)


class DriverAPI:
    """The driver library of one process, bound to one device."""

    def __init__(self, device: Device, force_ptx_jit: bool = False):
        self.device = device
        self.force_ptx_jit = force_ptx_jit
        self.stats = DriverStats()

    # -- context management ----------------------------------------------------

    def cuCtxCreate(self, name: str) -> Context:
        return self.device.create_context(name)

    def cuCtxDestroy(self, context: Context) -> None:
        self.device.destroy_context(context)

    def cuStreamCreate(self, context: Context) -> Stream:
        return context.create_stream()

    def cuStreamDestroy(self, context: Context, stream: Stream) -> None:
        """Release a stream's driver-side state. Work already submitted
        on the stream stays queued on the device and completes (real
        cuStreamDestroy has the same drain-then-free semantics)."""
        context.destroy_stream(stream)

    def cuStreamSynchronize(self, stream: Stream) -> int:
        """Wait for a stream to drain; returns how many operations the
        wait covered. Timing of the drained work is resolved by the
        device's deferred timeline pass (see :mod:`repro.gpu.device`);
        functionally every submitted operation has already executed."""
        return self.device.stream_pending(stream)

    # -- module management -------------------------------------------------------

    def cuModuleLoadData(self, context: Context,
                         ptx_text: Union[str, Module],
                         allocate_global=None,
                         parsed: Optional[Module] = None) -> CUmodule:
        """JIT-compile PTX and load it into the context.

        ``allocate_global(name, size) -> address`` overrides where the
        module's ``.global`` arrays are placed — the GuardianServer
        uses it to keep a tenant's statics inside the tenant's own
        partition, so fenced addresses remain valid for them.
        ``parsed`` is :func:`~repro.driver.jit.jit_compile`'s.
        """
        compiled = jit_compile(ptx_text, self.device.spec, parsed)
        return self._load_compiled(context, compiled,
                                   allocate_global=allocate_global)

    def cuModuleLoadFatBinary(self, context: Context,
                              fatbin: FatBinary) -> CUmodule:
        """Load device code from a fatBIN.

        Picks a cuBIN matching the device architecture when present
        (unless ``force_ptx_jit``), otherwise JITs the newest PTX —
        the real driver's selection policy.
        """
        arch = self._device_arch()
        cubin = fatbin.cubin_for(arch)
        if cubin is not None and not self.force_ptx_jit:
            # "Load machine code": our opaque cuBIN blobs embed the
            # original PTX, so the *driver* (which shipped them) can
            # decode them; extraction tools cannot.
            _, _, compressed = cubin.payload.partition(b"\x00" + arch.encode() + b"\x00")
            ptx_text = zlib.decompress(compressed).decode("utf-8")
            # Native code: this load is charged no JIT. The image it
            # binds is shared with JIT loads of the same text, so the
            # charge is dropped on the load, never on the image.
            compiled = dataclasses.replace(
                jit_compile(ptx_text, self.device.spec), jit_cycles=0)
            module = self._load_compiled(context, compiled)
            self.stats.modules_from_cubin += 1
            return module
        ptx_entries = fatbin.ptx_entries()
        if not ptx_entries:
            raise DriverError(
                f"fatbin {fatbin.name!r} has no PTX and no cuBIN for "
                f"{arch}"
            )
        return self.cuModuleLoadData(context, ptx_entries[-1].ptx_text())

    def _load_compiled(self, context: Context, compiled: CompiledModule,
                       allocate_global=None) -> CUmodule:
        module = CUmodule(compiled=compiled, context_id=context.context_id)
        for name, size in compiled.global_arrays.items():
            if allocate_global is not None:
                address = allocate_global(name, size)
            else:
                address = self.device.allocate(context, size)
            module.global_addresses[name] = address
        compiled.bind_globals(module.global_addresses)
        self.stats.modules_loaded += 1
        self.stats.jit_cycles += compiled.jit_cycles
        if compiled.image_shared:
            self.stats.images_shared += 1
        else:
            self.stats.images_built += 1
        return module

    def cuModuleGetFunction(self, module: CUmodule, name: str) -> CUfunction:
        return module.get_function(name)

    # -- memory -------------------------------------------------------------------

    def cuMemAlloc(self, context: Context, size: int) -> int:
        return self.device.allocate(context, size)

    def cuMemFree(self, context: Context, address: int) -> None:
        self.device.free(context, address)

    def cuMemcpyHtoD(self, stream: Stream, dst: int, data: bytes,
                     tag: str = "", release_cycles: float = 0.0) -> None:
        self.device.submit_h2d(stream, dst, data, tag=tag,
                               release_cycles=release_cycles)

    def cuMemcpyDtoH(self, stream: Stream, src: int, size: int,
                     tag: str = "", release_cycles: float = 0.0) -> bytes:
        return self.device.submit_d2h(stream, src, size, tag=tag,
                                      release_cycles=release_cycles)

    def cuMemcpyDtoD(self, stream: Stream, dst: int, src: int, size: int,
                     tag: str = "", release_cycles: float = 0.0) -> None:
        self.device.submit_d2d(stream, dst, src, size, tag=tag,
                               release_cycles=release_cycles)

    def cuMemsetD8(self, stream: Stream, dst: int, value: int, size: int,
                   tag: str = "", release_cycles: float = 0.0) -> None:
        """Fill device memory; modelled as an on-device bandwidth task."""
        self.device.submit_memset(stream, dst, value, size, tag=tag,
                                  release_cycles=release_cycles)

    # -- execution -------------------------------------------------------------------

    def cuLaunchKernel(
        self,
        function: CUfunction,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: list,
        stream: Stream,
        tag: str = "",
        release_cycles: float = 0.0,
    ) -> LaunchResult:
        """Launch a kernel. ``release_cycles`` is the device-clock
        instant the submitting host finished issuing the call (0 means
        immediately available)."""
        self.stats.kernels_launched += 1
        return self.device.submit_kernel(
            stream, function.compiled, grid, block, params, tag=tag,
            release_cycles=release_cycles,
        )

    # -- misc ---------------------------------------------------------------------------

    def _device_arch(self) -> str:
        capability = self.device.spec.compute_capability
        for arch, arch_capability in ARCHITECTURES.items():
            if arch_capability.split(".")[0] == capability.split(".")[0]:
                return arch
        # Compute capability 8.x is Ampere.
        if capability.startswith("8"):
            return "ampere"
        raise DriverError(f"unknown compute capability {capability}")
