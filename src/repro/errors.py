"""Exception hierarchy shared across the Guardian reproduction stack.

Every layer of the stack (PTX toolchain, GPU simulator, driver, runtime,
Guardian core) raises exceptions derived from :class:`ReproError` so that
callers can catch layer-specific failures without masking programming
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


class PTXError(ReproError):
    """Base class for PTX toolchain errors."""


class PTXParseError(PTXError):
    """The PTX text could not be parsed.

    Carries the 1-based source line number when available.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class PTXValidationError(PTXError):
    """The PTX module parsed but is structurally invalid."""


class GPUError(ReproError):
    """Base class for GPU simulator errors."""


class MemoryFault(GPUError):
    """A kernel or transfer touched an unmapped or foreign address.

    On real hardware this corresponds to an ``Xid`` error / sticky
    context failure. The simulator raises it for accesses outside any
    mapped region of the device address space.
    """

    def __init__(self, address: int, size: int = 1, kind: str = "access"):
        self.address = address
        self.size = size
        self.kind = kind
        super().__init__(
            f"illegal {kind} of {size} byte(s) at 0x{address:x}"
        )


class ExecutionError(GPUError):
    """A kernel failed while executing (bad opcode, missing register...)."""


#: What a kernel can raise while it runs; the server's kill path turns
#: each into a counted ``GuardianError`` for the launching tenant.
KERNEL_FAULTS = (ExecutionError, MemoryFault)


class StreamFault(GPUError):
    """An asynchronous fault surfaced on a stream.

    Mirrors CUDA's sticky asynchronous errors: the fault is raised at
    the next ordering point (synchronize or launch) after the faulting
    operation, and the stream stays wedged until it is destroyed.
    """

    def __init__(self, app_id: str, reason: str):
        self.app_id = app_id
        self.reason = reason
        super().__init__(
            f"tenant {app_id!r}: asynchronous stream fault ({reason})"
        )


class LaunchError(GPUError):
    """A kernel launch was rejected (bad configuration, unknown symbol)."""


class DriverError(ReproError):
    """CUDA driver API failure (cu* calls)."""


class RuntimeAPIError(ReproError):
    """CUDA runtime API failure (cuda* calls)."""


class GuardianError(ReproError):
    """Base class for Guardian core failures."""


class PartitionError(GuardianError):
    """Partition creation/resizing failed (capacity, alignment)."""


class AllocationError(GuardianError):
    """An allocation could not be satisfied inside a partition."""


class BoundsViolation(GuardianError):
    """A host-initiated transfer fell outside the tenant's partition.

    Guardian *fences* such transfers: the operation is rejected before it
    reaches the device.
    """

    def __init__(self, app_id: str, address: int, size: int, detail: str = ""):
        self.app_id = app_id
        self.address = address
        self.size = size
        msg = (
            f"tenant {app_id!r}: transfer [0x{address:x}, "
            f"0x{address + size:x}) outside its partition"
        )
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class PatcherError(GuardianError):
    """The PTX patcher could not instrument a kernel."""


class IPCError(GuardianError):
    """The client/server channel failed (closed, protocol mismatch)."""


class ChannelClosedError(IPCError):
    """A call was issued on a closed channel.

    Raised instead of a hang or an ``AttributeError`` when a client
    keeps using its channel after ``close()``/``abort()`` — the defined
    behaviour for the dead-client case.
    """

    def __init__(self, app_id: str, detail: str = ""):
        self.app_id = app_id
        msg = f"channel of app {app_id!r} is closed"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)


class AdmissionRejected(GuardianError):
    """The server's bounded admission gate turned a tenant away.

    Raised by ``attach`` when ``ServerConfig.max_resident_tenants`` is
    set and the server is already at capacity — the backpressure signal
    the open-loop load generator reacts to by shedding the session.
    Nothing about the rejected tenant was created: no partition, no
    stream, no bounds record, so resident tenants are untouched.
    """

    def __init__(self, app_id: str, resident: int, limit: int):
        self.app_id = app_id
        self.resident = resident
        self.limit = limit
        super().__init__(
            f"app {app_id!r} rejected at admission: {resident} resident "
            f"tenant(s) at the configured limit of {limit}"
        )


class TransientIPCFault(IPCError):
    """A message-queue crossing failed in a retryable way (dropped or
    corrupted message). The TenantSupervisor retries these with backoff
    before surfacing an :class:`IPCError` to the tenant."""

    def __init__(self, app_id: str, op: str, kind: str, attempts: int):
        self.app_id = app_id
        self.op = op
        self.kind = kind
        self.attempts = attempts
        super().__init__(
            f"tenant {app_id!r}: {op} lost to IPC fault {kind!r} after "
            f"{attempts} attempt(s)"
        )


class ClientCrashed(GuardianError):
    """The client process died mid-call (fault injection's model of a
    tenant crash). The channel is left with whatever batch was pending;
    the server side reaps the tenant via quarantine."""

    def __init__(self, app_id: str, op: str):
        self.app_id = app_id
        self.op = op
        super().__init__(f"client {app_id!r} crashed during {op!r}")


class MigrationError(GuardianError):
    """A live tenant migration could not complete (snapshot truncated,
    incompatible fencing mode, no capacity on the target). The tenant
    is left attached to its source node; migration is all-or-nothing."""


class NodeDown(GuardianError):
    """The node serving this tenant has crashed: its device memory is
    gone and nothing can be recovered from it. Raised by the cluster
    client when a call targets a dead node."""

    def __init__(self, app_id: str, node_id: str):
        self.app_id = app_id
        self.node_id = node_id
        super().__init__(
            f"tenant {app_id!r}: node {node_id!r} is down"
        )


class TenantQuarantined(GuardianError):
    """The tenant exhausted its fault budget and was quarantined: its
    partition reclaimed and scrubbed, its stream drained and destroyed,
    its handles dropped. Every subsequent call fails with this error."""

    def __init__(self, app_id: str, reason: str):
        self.app_id = app_id
        self.reason = reason
        super().__init__(
            f"tenant {app_id!r} is quarantined ({reason})"
        )
