"""Guardian (G-Safe) — safe GPU sharing in multi-tenant environments.

A complete Python reproduction of *Guardian: Safe GPU Sharing in
Multi-Tenant Environments* (MIDDLEWARE 2024; arXiv title "G-Safe").
The package contains the paper's contribution (PTX-level bounds
checking, partitioned memory, a trusted GPU server with transparent
interception) **and** every substrate it needs: a PTX toolchain, a
functional cycle-cost GPU simulator, CUDA driver/runtime layers,
closed-source accelerated libraries, ML/Rodinia workloads and the
multi-tenant deployment harness.

Quickstart::

    from repro import GuardianSystem

    system = GuardianSystem()                   # device + server
    tenant = system.attach("alice", 64 << 20)   # preloaded runtime
    ptr = tenant.runtime.cudaMalloc(1024)
    tenant.runtime.cudaMemcpyH2D(ptr, b"x" * 1024)

See ``examples/quickstart.py`` for the full tour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import (
    ClusterConfig,
    GuardianCluster,
    NodeHealth,
    PlacementPolicy,
)
from repro.core.client import GuardianClient, preload_guardian
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.core.supervisor import TenantSupervisor
from repro.errors import ClientCrashed, TenantQuarantined
from repro.faults.plan import FaultPlan
from repro.gpu.device import Device
from repro.gpu.specs import (
    DeviceSpec,
    GEFORCE_RTX_3080TI,
    QUADRO_RTX_A4000,
)
from repro.runtime.api import CudaRuntime
from repro.runtime.interpose import DynamicLoader
from repro.telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "ClusterConfig",
    "CudaRuntime",
    "Device",
    "DeviceSpec",
    "FaultPlan",
    "FencingMode",
    "GEFORCE_RTX_3080TI",
    "GuardianClient",
    "GuardianCluster",
    "GuardianServer",
    "GuardianSystem",
    "GuardianTenant",
    "NodeHealth",
    "PlacementPolicy",
    "QUADRO_RTX_A4000",
    "ServerConfig",
    "Telemetry",
    "TenantSupervisor",
    "preload_guardian",
]


@dataclass
class GuardianTenant:
    """One attached application: its shim, loader and runtime."""

    app_id: str
    client: GuardianClient
    loader: DynamicLoader
    runtime: CudaRuntime


class GuardianSystem:
    """Convenience facade: one simulated GPU plus a GuardianServer.

    The high-level entry point for examples and downstream users; all
    the pieces stay accessible (``system.device``, ``system.server``)
    for anything the facade doesn't cover.
    """

    def __init__(
        self,
        spec: DeviceSpec = QUADRO_RTX_A4000,
        mode: FencingMode = FencingMode.BITWISE,
        config: ServerConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.device = Device(spec)
        self.server = GuardianServer(self.device, mode=mode, config=config)
        # A fault plan brings a supervisor; without one the system is
        # byte-compatible with the seed.
        self.fault_plan = fault_plan
        self.supervisor: TenantSupervisor | None = (
            TenantSupervisor(self.server, plan=fault_plan)
            if fault_plan is not None else None
        )
        self.tenants: dict[str, GuardianTenant] = {}

    @property
    def dispatch_target(self):
        """What clients talk to: the supervisor when present."""
        return self.supervisor if self.supervisor is not None else self.server

    def attach(self, app_id: str, max_bytes: int) -> GuardianTenant:
        """Attach a tenant: partition, preloaded shim, CUDA runtime."""
        loader = DynamicLoader()
        client = preload_guardian(loader, self.dispatch_target, app_id,
                                  max_bytes, fault_plan=self.fault_plan)
        tenant = GuardianTenant(
            app_id=app_id,
            client=client,
            loader=loader,
            runtime=CudaRuntime(loader),
        )
        self.tenants[app_id] = tenant
        return tenant

    def detach(self, app_id: str) -> None:
        tenant = self.tenants.pop(app_id, None)
        if tenant is None:
            return
        try:
            tenant.client.close()
        except TenantQuarantined:
            # Already evicted server-side; just drop the channel.
            tenant.client.channel.abort()
        if tenant.client.crashed and self.supervisor is not None:
            self.supervisor.reap(app_id)

    def reap(self, app_id: str) -> None:
        """Clean up a tenant whose client process died (crash path)."""
        tenant = self.tenants.pop(app_id, None)
        if tenant is not None:
            tenant.client.channel.abort()
        if self.supervisor is not None:
            self.supervisor.reap(app_id)
        else:
            self.server.quarantine(app_id, reason="client crashed")

    def synchronize(self):
        """Resolve all pending device timing (spatial sharing)."""
        return self.device.synchronize(spatial=True)
