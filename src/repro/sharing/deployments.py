"""The uniform deployment harness (Fig. 7's four configurations).

``run_deployment`` places a set of applications on one simulated GPU
under a chosen sharing deployment and reports:

- per-application wall time — the max of the app's host-side time
  (runtime surface + backend/driver/IPC cycles) and its device-side
  completion time from the timeline;
- the workload makespan — bounded below by the device timeline, the
  slowest app's host time, and (for the server-based deployments) the
  server's serial busy time: both MPS and Guardian process all
  clients' calls in one daemon, which is exactly the bottleneck the
  paper observes on kernel-heavy workloads (§6.1).

Applications are expressed as :class:`AppSpec` — a name plus a
callable that, given a ``CudaRuntime``, performs all the app's GPU
work. Functional execution happens at submission; timing is resolved
by one timeline pass at the end (see :mod:`repro.gpu.device`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.client import preload_guardian
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.gpu.device import Device
from repro.gpu.specs import DeviceSpec, QUADRO_RTX_A4000
from repro.runtime.api import CudaRuntime, HostCostModel
from repro.runtime.backend import NativeBackend
from repro.runtime.interpose import LIBCUDA, DynamicLoader
from repro.sharing.mps import MPSClient, MPSServer

#: The four deployments of the paper's evaluation.
DEPLOYMENTS = ("native", "mps", "guardian-noprot", "guardian")

#: Default per-tenant partition request (power-of-two).
DEFAULT_PARTITION_BYTES = 64 << 20


@dataclass
class AppSpec:
    """One application: a unique id and its workload body."""

    app_id: str
    workload: Callable[[CudaRuntime], None]
    partition_bytes: int = DEFAULT_PARTITION_BYTES


@dataclass
class AppResult:
    app_id: str
    host_seconds: float
    device_seconds: float

    @property
    def wall_seconds(self) -> float:
        return max(self.host_seconds, self.device_seconds)


@dataclass
class DeploymentRun:
    """Outcome of one workload mix under one deployment."""

    deployment: str
    apps: list[AppResult]
    device_makespan_seconds: float
    server_busy_seconds: float
    context_switches: int
    kernels_launched: int
    transfers_rejected: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def makespan_seconds(self) -> float:
        """Total time to finish every co-located application.

        Server serialisation is not a separate term: it already bounds
        the device timeline through per-task submission release times.
        """
        slowest_app = max(
            (app.wall_seconds for app in self.apps), default=0.0
        )
        return max(self.device_makespan_seconds, slowest_app)


def run_deployment(
    deployment: str,
    apps: list[AppSpec],
    spec: DeviceSpec = QUADRO_RTX_A4000,
    mode: FencingMode = FencingMode.BITWISE,
    max_blocks: Optional[int] = None,
    device: Optional[Device] = None,
    server_config: Optional[ServerConfig] = None,
) -> DeploymentRun:
    """Run a workload mix under one deployment and time it.

    ``server_config`` applies to the Guardian deployments only (hot-path
    caching/batching knobs); the figure-reproduction callers leave it
    ``None`` so the measured costs match the paper.
    """
    if deployment not in DEPLOYMENTS:
        raise ValueError(
            f"unknown deployment {deployment!r}; pick from {DEPLOYMENTS}"
        )
    if max_blocks is not None and max_blocks < 1:
        raise ValueError(f"max_blocks must be at least 1, got {max_blocks}")
    device = device or Device(spec)
    if max_blocks is not None:
        device.max_blocks_per_launch = max_blocks

    costs = HostCostModel()
    server: object = None
    if deployment == "mps":
        server = MPSServer(device)
    elif deployment in ("guardian", "guardian-noprot"):
        server = GuardianServer(
            device,
            mode=mode if deployment == "guardian" else FencingMode.NONE,
            config=server_config,
        )

    contexts = []
    for app in apps:
        loader = DynamicLoader()
        if deployment == "native":
            backend = NativeBackend(device, app.app_id)
            loader.register(LIBCUDA, backend)
        elif deployment == "mps":
            backend = MPSClient(server, app.app_id)
            loader.register(LIBCUDA, backend)
        else:
            backend = preload_guardian(
                loader, server, app.app_id, app.partition_bytes
            )
        runtime = CudaRuntime(loader, costs=costs)
        contexts.append((app, backend, runtime))

    # Functional phase: run every app's workload (submission order
    # interleaves nothing across tenants' memory, so order is free).
    for app, backend, runtime in contexts:
        app.workload(runtime)
        # A batching client may end its workload with calls still
        # queued; flush so their effects land before the timeline pass.
        channel = getattr(backend, "channel", None)
        if channel is not None:
            channel.flush()

    timeline = device.synchronize(spatial=(deployment != "native"))

    results = []
    for app, backend, runtime in contexts:
        host_cycles = runtime.profile.cycles + backend.profile.cycles
        completion = timeline.completion_by_tag.get(app.app_id, 0.0)
        results.append(
            AppResult(
                app_id=app.app_id,
                host_seconds=costs.cycles_to_seconds(host_cycles),
                device_seconds=spec.cycles_to_seconds(completion),
            )
        )

    server_busy = 0.0
    rejected = 0
    if server is not None:
        server_busy = costs.cycles_to_seconds(server.stats.cycles)
        rejected = getattr(server.stats, "transfers_rejected", 0)

    return DeploymentRun(
        deployment=deployment,
        apps=results,
        device_makespan_seconds=spec.cycles_to_seconds(
            timeline.makespan_cycles
        ),
        server_busy_seconds=server_busy,
        context_switches=timeline.context_switches,
        kernels_launched=device.metrics.kernels_launched,
        transfers_rejected=rejected,
    )
