"""The Guardian client library — the paper's preloaded ``lgSafe``.

This is the LD_PRELOAD shim (§4.1): it implements the same driver-level
interface the CUDA runtime and the accelerated libraries bind
(:class:`repro.runtime.backend.GpuBackend`), but every operation is
forwarded over IPC to the GuardianServer. Because interposition happens
at the runtime/driver *library* level — not at the accelerated-library
level — the **implicit** CUDA calls made inside closed-source library
functions are intercepted too, which is precisely what distinguishes
Guardian from prior API-remoting systems (Fig. 4).

The shim also carries Guardian's minimal ``cudaGetExportTable``
implementation: the hidden function tables are rebuilt locally, bound
to the shim itself, so the hidden functions that do touch the GPU also
route through the server.

Use :func:`preload_guardian` to install a client into a process's
dynamic loader *before* the application starts — the same ordering
constraint real LD_PRELOAD has.
"""

from __future__ import annotations

from typing import Optional

from repro.core.ipc import IPCChannel
from repro.core.server import GuardianServer
from repro.driver.fatbin import FatBinary
from repro.errors import ClientCrashed
from repro.faults.plan import FaultKind, FaultPlan, Site
from repro.runtime.backend import BackendProfile, GpuBackend
from repro.runtime.interpose import LIBCUDA, DynamicLoader

#: Cycles the shim itself burns per intercepted call (PLT indirection,
#: argument repacking) — on top of the IPC transport.
INTERCEPT_CYCLES = 120


class GuardianClient(GpuBackend):
    """One tenant's view of the GPU, remoted through the server."""

    def __init__(
        self,
        server: GuardianServer,
        app_id: str,
        max_bytes: int,
        fault_plan: Optional[FaultPlan] = None,
        attach: bool = True,
    ):
        self.app_id = app_id
        # Client-side fault injection: the only fault that fires here
        # is a crash of the client process itself — everything else
        # happens on the far side of the message queue.
        self._faults = fault_plan
        self.crashed = False
        # The server's hot-path switch decides batching, so enabling
        # it in one place configures every attaching tenant.
        self.channel = IPCChannel(
            server, app_id, batching=server.config.enable_hot_path)
        self.profile = BackendProfile()
        self._spec = None
        self._export_tables = None
        # Attach declares the tenant's maximum memory requirement —
        # Guardian's static-partitioning contract (§4.2.1). A rebind
        # after live migration skips it: the target server already
        # adopted the tenant via restore_tenant.
        if attach:
            self._call("attach", max_bytes)

    # -- plumbing -----------------------------------------------------------------

    @property
    def telemetry(self):
        """The server's telemetry spine (None with the knob off)."""
        return self.channel.telemetry

    @property
    def trace_engine(self):
        """The server's trace-specialization engine (None with
        ``enable_trace_specialization`` off). Exposed for tests and
        metrics; the channel already consults it directly to marshal
        trace-matching calls at the discounted rate."""
        return self.channel._trace_engine

    def _call(self, method: str, *args, payload_bytes: int = 0,
              sync: bool = True):
        if self.crashed:
            raise ClientCrashed(self.app_id, method)
        if self._faults is not None:
            fired = self._faults.fire(Site.CLIENT, self.app_id, method)
            if fired is not None and fired.kind is FaultKind.CLIENT_CRASH:
                # The process dies before the message leaves it: any
                # batch queued in the channel is stranded (never
                # flushed), exactly the state the server-side reaper
                # has to clean up after.
                self.crashed = True
                if self.telemetry is not None:
                    self.telemetry.client_crashes.inc(
                        tenant=self.app_id, method=method
                    )
                raise ClientCrashed(self.app_id, method)
        self.profile.charge(method, INTERCEPT_CYCLES)
        stats = self.channel.stats
        before = stats.client_cycles
        result = self.channel.call(
            method, *args, payload_bytes=payload_bytes, sync=sync
        )
        self.profile.cycles += stats.client_cycles - before
        return result

    def close(self) -> None:
        """Detach from the server and release the partition.

        A crashed client cannot say goodbye: its pending batch is
        discarded (never delivered) and the server-side reaper — not
        this method — reclaims the partition.
        """
        if self.crashed:
            self.channel.abort()
            return
        self._call("detach")
        self.channel.close()

    def grow_partition(self, new_max_bytes: int) -> int:
        """Request in-place partition growth; returns the new size.

        All existing device pointers remain valid (the base address is
        unchanged; only the fence mask widens).
        """
        return self._call("grow_partition", new_max_bytes)

    def shrink_partition(self) -> int:
        """Request an opportunistic in-place shrink (elastic engine,
        DESIGN.md §14); returns the new — possibly unchanged — size.

        All existing device pointers remain valid (the base address is
        unchanged; only the fence mask narrows). Requires
        ``ServerConfig.enable_elastic_memory`` on the server.
        """
        return self._call("shrink_partition")

    def flush(self) -> int:
        """Deliver any batched asynchronous calls now; returns how many
        were delivered. A no-op without batching — callers that want an
        explicit submission point (benchmark harnesses, checkpointing)
        don't need to know whether the channel batches."""
        if self.crashed:
            raise ClientCrashed(self.app_id, "flush")
        return self.channel.flush()

    # -- GpuBackend interface ------------------------------------------------------

    def malloc(self, size: int) -> int:
        return self._call("malloc", size)

    def free(self, address: int) -> None:
        self._call("free", address)

    def memcpy_h2d(self, dst: int, data: bytes, stream_id: int = 0) -> None:
        # Async submission: the copy is staged into the shared segment
        # and the client continues.
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
        return self._call("register_fatbin", fatbin, payload_bytes=payload)

    def load_module_ptx(self, ptx_text: str) -> dict[str, int]:
        return self._call("load_module_ptx", ptx_text,
                          payload_bytes=len(ptx_text))

    def launch_kernel(self, handle, grid, block, params,
                      stream_id: int = 0) -> None:
        # Kernel launches are asynchronous (~8 bytes per argument
        # cross the shared segment); the server's lookup + augment +
        # syscall cycles land on the server's busy time.
        self._call("launch_kernel", handle, grid, block, list(params),
                   stream_id, payload_bytes=8 * len(params), sync=False)

    def create_stream(self) -> int:
        return self._call("create_stream")

    def synchronize(self) -> None:
        self._call("synchronize")

    def get_export_table(self, table_uuid: str) -> dict:
        """Guardian's minimal export-table implementation (§4.1)."""
        if self._export_tables is None:
            from repro.runtime.export_table import build_export_tables

            self._export_tables = build_export_tables(self)
        table = self._export_tables.get(table_uuid)
        if table is None:
            from repro.errors import GuardianError

            raise GuardianError(
                f"export table {table_uuid!r} is not in Guardian's "
                f"minimal implementation"
            )
        return table

    def device_spec(self):
        if self._spec is None:
            self._spec = self._call("get_spec")
        return self._spec


def preload_guardian(
    loader: DynamicLoader,
    server: GuardianServer,
    app_id: str,
    max_bytes: int,
    fault_plan: Optional[FaultPlan] = None,
) -> GuardianClient:
    """Install the Guardian shim into a process (the LD_PRELOAD moment).

    Must run before the application creates its CUDA runtime or loads
    any accelerated library — afterwards those components would already
    hold the real driver binding.
    """
    client = GuardianClient(server, app_id, max_bytes, fault_plan=fault_plan)
    loader.preload(LIBCUDA, client)
    return client
