"""The fleet control plane: N Guardian nodes, one cluster.

The paper's §8 multi-node claim — "G-Safe operates independently in
each node" — means Guardian *composes* across nodes but says nothing
about surviving one. :class:`GuardianCluster` adds the missing control
plane over N otherwise-independent ``GuardianServer``s (each with its
own simulated device, supervisor and health monitor):

- **admission** routes each attach through the failure-domain-aware
  placement scheduler (:mod:`repro.cluster.placement`);
- **tick()** is the cluster's heartbeat: each beat polls every node's
  liveness (consulting the fault plan's ``Site.NODE`` specs), feeds
  fresh supervisor failure records into the node's health monitor,
  and *reacts* — a node that went ``down`` is drained (every resident
  tenant live-migrated to a healthy node, or cleanly quarantined when
  nothing can host it / the node's memory is gone);
- **migrate()** is the live-migration protocol driver: flush the
  tenant's batch, quiesce and snapshot on the source
  (:meth:`GuardianServer.snapshot_tenant`), land on the target
  (:meth:`restore_tenant` — the same landing a compaction or swap-in
  uses, bounds re-published at the new base under a fresh epoch), tear
  down the source residue (:meth:`evacuate`), and rebind the tenant's
  :class:`ClusterClient`. All-or-nothing: a truncated snapshot or a
  restore failure leaves the tenant attached to its source, untouched.
  Migration is bitwise-only by policy: other modes are refused before
  any snapshot, on top of the landing's own
  :meth:`~repro.core.policy.FencingMode.relocates` check.

The per-node supervisors get the **migration rung**
(:data:`~repro.core.supervisor.MIGRATE_BUDGET_FRACTION`): a tenant
burning fault budget is moved to a healthier node *before* the budget
exhausts into eviction.

Everything here is additive and opt-in: constructing a cluster builds
its own servers; the single-node ``GuardianSystem`` path never touches
this module, and all Table 5 pins stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

from repro.cluster.client import ClusterClient
from repro.cluster.health import (
    NodeHealth,
    NodeHealthMonitor,
    publish_node_health,
)
from repro.cluster.placement import PlacementPolicy
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.core.supervisor import TenantSupervisor
from repro.errors import (
    GuardianError,
    MigrationError,
    PartitionError,
    ReproError,
    TenantQuarantined,
)
from repro.faults.plan import FaultKind, FaultPlan, Site
from repro.gpu.device import Device
from repro.gpu.specs import DeviceSpec, QUADRO_RTX_A4000
from repro.runtime.api import CudaRuntime
from repro.runtime.interpose import LIBCUDA, DynamicLoader
from repro.telemetry import Telemetry


#: Backoff jitter of every node's supervisor: a cluster has many
#: tenants' lanes retrying against one control plane, so its resends
#: are spread where a single node's stay exact.
NODE_BACKOFF_JITTER = 0.1


@dataclass(frozen=True)
class ClusterConfig:
    """The fleet control plane's deployment settings.

    The cluster itself is opt-in (nothing constructs one implicitly),
    so it describes a *working* control plane: every node's supervisor
    runs with ``NODE_BACKOFF_JITTER`` and, when ``mode`` is
    ``FencingMode.BITWISE``, the migration rung
    (``supervisor.MIGRATE_BUDGET_FRACTION``). A cluster migrates iff
    its mode is bitwise: the fence is what retargets device-held
    pointers after a move, so in any other mode a node loss evicts
    instead of moving.
    """

    server_config: ServerConfig = field(default_factory=ServerConfig)
    mode: FencingMode = FencingMode.BITWISE
    placement: PlacementPolicy = field(default_factory=PlacementPolicy)


@dataclass
class MigrationRecord:
    """One migration attempt, successful or not."""

    tenant: str
    source: str
    target: str
    reason: str
    trigger: str  # supervisor | evacuation | operator
    beat: int
    bytes_moved: int = 0
    #: Modelled PCIe cost of moving the partition (device→host on the
    #: source + host→device on the target), in seconds.
    transfer_seconds: float = 0.0
    success: bool = False
    detail: str = ""


@dataclass
class EvictionRecord:
    """A tenant the cluster could not save: who, where, why."""

    tenant: str
    node: str
    reason: str
    beat: int


@dataclass
class ClusterTenant:
    """One attached application: its cluster shim, loader and runtime."""

    app_id: str
    client: ClusterClient
    loader: DynamicLoader
    runtime: CudaRuntime

    @property
    def node(self):
        return self.client.node


class GuardianNode:
    """One rack slot: a device, its server, supervisor and monitor."""

    def __init__(self, node_id: str, spec: DeviceSpec,
                 config: ClusterConfig,
                 plan: Optional[FaultPlan] = None):
        self.node_id = node_id
        self.spec = spec
        self.device = Device(spec)
        self.server = GuardianServer(
            self.device, mode=config.mode, config=config.server_config,
        )
        self.supervisor = TenantSupervisor(
            self.server, plan=plan, node=node_id,
            backoff_jitter=NODE_BACKOFF_JITTER,
        )
        self.monitor = NodeHealthMonitor(node_id)
        self.crashed = False
        self.crash_reason = ""
        #: Set once the cluster has drained the node after it went
        #: down, so evacuation runs exactly once.
        self.drained = False

    @property
    def dispatch_target(self) -> TenantSupervisor:
        return self.supervisor

    def crash(self, reason: str) -> None:
        """The node dies: device memory is gone, nothing is reachable."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_reason = reason
        self.monitor.force_down(f"node crash: {reason}")

    def resident_tenants(self) -> list[str]:
        return [p.app_id for p in self.server.allocator.partitions()]


class GuardianCluster:
    """N Guardian nodes under one admission/health/migration plane."""

    def __init__(
        self,
        specs: Union[int, Sequence[DeviceSpec]] = 2,
        config: Optional[ClusterConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if isinstance(specs, int):
            specs = [QUADRO_RTX_A4000] * specs
        if not specs:
            raise GuardianError("a cluster needs at least one node")
        self.config = config or ClusterConfig()
        self.plan = fault_plan
        self.nodes: list[GuardianNode] = [
            GuardianNode(f"node{index}", spec, self.config, plan=fault_plan)
            for index, spec in enumerate(specs)
        ]
        if self.config.mode is FencingMode.BITWISE:
            for node in self.nodes:
                node.supervisor.migration_hook = self._supervisor_migrate
        self.tenants: dict[str, ClusterTenant] = {}
        self.beat = 0
        self.migrations: list[MigrationRecord] = []
        self.evictions: list[EvictionRecord] = []
        #: The control plane's own telemetry (separate from each
        #: node's server-level spine; its track unit is microseconds
        #: of modelled transfer time, not server cycles). Follows the
        #: same ServerConfig knob so one switch lights up every layer.
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if self.config.server_config.telemetry else None
        )
        #: Per-node cursor into supervisor.records already fed to the
        #: health monitor.
        self._record_cursors: dict[str, int] = {
            node.node_id: 0 for node in self.nodes
        }

    # -- admission ----------------------------------------------------------------

    def node(self, node_id: str) -> GuardianNode:
        for candidate in self.nodes:
            if candidate.node_id == node_id:
                return candidate
        raise GuardianError(f"no node {node_id!r} in this cluster")

    def attach(self, app_id: str, max_bytes: int) -> ClusterTenant:
        """Admit a tenant onto the placement scheduler's pick."""
        if app_id in self.tenants:
            raise GuardianError(f"app {app_id!r} already attached")
        home = self.config.placement.choose(self.nodes, max_bytes)
        if home is None:
            raise PartitionError(
                f"no node can host a {max_bytes}-byte partition "
                f"(capacity or health)"
            )
        loader = DynamicLoader()
        client = ClusterClient(home, app_id, max_bytes,
                               fault_plan=self.plan)
        if home.server.elastic is not None:
            home.server.elastic.bind_client(app_id, client)
        loader.preload(LIBCUDA, client)
        session = ClusterTenant(
            app_id=app_id,
            client=client,
            loader=loader,
            runtime=CudaRuntime(loader),
        )
        self.tenants[app_id] = session
        return session

    def detach(self, app_id: str) -> None:
        session = self.tenants.pop(app_id, None)
        if session is None:
            return
        try:
            session.client.close()
        except TenantQuarantined:
            session.client.channel.abort()
        if session.client.crashed:
            node = session.client.node
            if not node.crashed:
                node.supervisor.reap(app_id)

    def synchronize(self) -> None:
        """Resolve pending device timing on every node."""
        for node in self.nodes:
            if not node.crashed:
                node.device.synchronize(spatial=True)

    # -- the heartbeat loop ---------------------------------------------------------

    def tick(self) -> dict:
        """One control-plane beat: poll health, absorb failure records,
        react. Returns a beat summary (node states + actions taken)."""
        self.beat += 1
        actions: list[str] = []
        for node in self.nodes:
            answered = not node.crashed
            if answered and self.plan is not None:
                fired = self.plan.fire(Site.NODE, node.node_id, "heartbeat")
                if fired is not None:
                    if fired.kind is FaultKind.NODE_CRASH:
                        node.crash(fired.reason or "injected node crash")
                        answered = False
                    elif fired.kind is FaultKind.HEARTBEAT_LOSS:
                        answered = False
            node.monitor.beat(answered)
            self._absorb_records(node)
        for node in self.nodes:
            if node.monitor.state is NodeHealth.DOWN and not node.drained:
                actions.extend(self._drain_node(node))
        if self.telemetry is not None:
            for node in self.nodes:
                publish_node_health(self.telemetry.registry, node.monitor)
        return {
            "beat": self.beat,
            "states": {
                node.node_id: node.monitor.state.value
                for node in self.nodes
            },
            "actions": actions,
        }

    def _absorb_records(self, node: GuardianNode) -> None:
        records = node.supervisor.records
        cursor = self._record_cursors[node.node_id]
        for record in records[cursor:]:
            node.monitor.note_failure(record.action)
        self._record_cursors[node.node_id] = len(records)

    # -- reactions -----------------------------------------------------------------

    def _drain_node(self, node: GuardianNode) -> list[str]:
        """A node went ``down``: move every resident off it, or fail
        them cleanly. Runs once per node (idempotent via ``drained``).

        Decisions are pinned against each tenant's *incarnation* at
        decision time: if anything re-attached the name meanwhile, the
        stale quarantine is a no-op instead of evicting the newcomer.
        """
        node.drained = True
        actions: list[str] = []
        residents = [
            (app_id, node.server._tenants[app_id].incarnation)
            for app_id in node.resident_tenants()
            if app_id in node.server._tenants
        ]
        for app_id, incarnation in residents:
            if node.crashed:
                # Memory died with the node; nothing to migrate.
                self.evictions.append(EvictionRecord(
                    tenant=app_id, node=node.node_id,
                    reason=f"node crashed ({node.crash_reason})",
                    beat=self.beat,
                ))
                actions.append(f"lost {app_id} with {node.node_id}")
                continue
            if self.migrate(app_id, reason="node down: draining",
                            trigger="evacuation"):
                actions.append(f"migrated {app_id} off {node.node_id}")
            else:
                node.supervisor.quarantine_tenant(
                    app_id, f"node {node.node_id} down; no migration target"
                )
                # Re-check the incarnation guard explicitly too — the
                # supervisor path resolves by name; the server's check
                # makes a stale decision harmless.
                node.server.quarantine(
                    app_id, reason="node down", incarnation=incarnation
                )
                self.evictions.append(EvictionRecord(
                    tenant=app_id, node=node.node_id,
                    reason="node down; no migration target",
                    beat=self.beat,
                ))
                actions.append(f"quarantined {app_id} on {node.node_id}")
        return actions

    # -- live migration -------------------------------------------------------------

    def _supervisor_migrate(self, app_id: str, reason: str) -> bool:
        """Every node supervisor's ``migration_hook``: never raises."""
        try:
            return self.migrate(app_id, reason=reason, trigger="supervisor")
        except ReproError:
            return False

    def migrate(self, app_id: str, target: Optional[GuardianNode] = None,
                reason: str = "", trigger: str = "operator") -> bool:
        """Move one tenant to ``target`` (or the scheduler's pick).

        All-or-nothing: on any failure the tenant stays attached to
        its source, which remains responsible for it. Returns True on
        a completed move. A cluster whose mode is not bitwise refuses
        every move, with a record naming the fence. The fault plan's
        ``(Site.NODE, source, "migrate")`` consultation can truncate
        the snapshot (abort) or crash the source mid-copy (the tenant
        survives on the target; the source's other residents are
        handled by the next beat).

        **Every per-call specialization restarts cold at the
        destination.** The snapshot carries nothing of the launch memo
        or the source's trace-specialization state: ``restore_tenant``
        re-publishes the bounds record at the new base under a fresh
        epoch, so the first post-migration launch rebuilds its fencing
        parameters, and the destination's trace engine — which also
        forgets any same-named leftovers on restore — must re-record
        and re-compile before any specialized replay. Replaying a
        source-compiled trace against the destination's epoch, stream,
        or base address is therefore impossible by construction, not
        merely guarded against.
        """
        session = self.tenants.get(app_id)
        if session is None:
            return False
        source = session.client.node
        if source.crashed or app_id not in source.resident_tenants():
            return False
        size = source.server.allocator.partition(app_id).size
        detail = "no eligible target node"
        if self.config.mode is not FencingMode.BITWISE:
            target, detail = None, (
                "live migration requires FencingMode.BITWISE: the fence "
                "retargets device-held pointers after a move"
            )
        elif target is None:
            target = self.config.placement.choose(
                self.nodes, size, exclude=(source.node_id,)
            )
        record = MigrationRecord(
            tenant=app_id, source=source.node_id,
            target=target.node_id if target is not None else "<none>",
            reason=reason, trigger=trigger, beat=self.beat,
        )
        self.migrations.append(record)
        if target is None:
            record.detail = detail
            self._observe_migration(record)
            return False
        # Deliver any batched async work to the source before the cut:
        # the snapshot must include it (in-order-per-application).
        try:
            session.client.flush()
        except ReproError as failure:
            # A batched call failing is the *tenant's* event (already
            # recorded by the source supervisor), not the migration's;
            # the queue was delivered either way.
            record.detail = f"flush surfaced: {failure}"
        crash_mid = None
        truncate_at = None
        if self.plan is not None:
            fired = self.plan.fire(Site.NODE, source.node_id, "migrate")
            if fired is not None:
                if fired.kind is FaultKind.SNAPSHOT_PARTIAL:
                    truncate_at = fired.truncate_at
                elif fired.kind is FaultKind.NODE_CRASH:
                    crash_mid = fired.reason or "crash mid-migration"
        try:
            snapshot = source.server.snapshot_tenant(app_id)
        except ReproError as failure:
            record.detail = f"snapshot refused: {failure}"
            source.monitor.note_failure("migration_failed")
            self._observe_migration(record)
            return False
        if truncate_at is not None:
            snapshot = replace(
                snapshot,
                data=snapshot.data.prefix(int(snapshot.size * truncate_at)),
            )
        if crash_mid is not None:
            # The source dies with the snapshot already cut; the
            # restore proceeds — that is the point of the protocol's
            # copy-then-switch ordering.
            source.crash(crash_mid)
        try:
            new_base = target.server.restore_tenant(snapshot)
        except MigrationError as failure:
            record.detail = str(failure)
            source.monitor.note_failure("migration_failed")
            self._observe_migration(record)
            return False
        record.bytes_moved = snapshot.size
        record.transfer_seconds = (
            snapshot.size / (source.spec.pcie_bw_gbps * 1e9)
            + snapshot.size / (target.spec.pcie_bw_gbps * 1e9)
        )
        if not source.crashed:
            source.server.evacuate(app_id)
            source.supervisor.forget(app_id)
        session.client.rebind(target, new_base)
        if target.server.elastic is not None:
            target.server.elastic.bind_client(app_id, session.client)
        record.success = True
        self._observe_migration(record)
        return True

    def _observe_migration(self, record: MigrationRecord) -> None:
        """Retrospective migration spans + counter on the cluster track.

        A completed move becomes a parent span covering the whole
        transfer with ``snapshot`` (source half) and ``restore``
        (target half) children; a failed attempt becomes a
        zero-duration marker carrying the failure detail. The cluster
        tracer's axis is microseconds of modelled PCIe transfer time.
        """
        if self.telemetry is None:
            return
        tracer = self.telemetry.tracer
        outcome = "success" if record.success else "failed"
        self.telemetry.migrations.inc(
            source=record.source, target=record.target, outcome=outcome,
        )
        start = tracer.clock
        common = {"source": record.source, "target": record.target,
                  "trigger": record.trigger, "beat": record.beat}
        if not record.success:
            tracer.emit(
                f"migrate:{record.tenant}", "migration", record.tenant,
                track="cluster", start=start, end=start,
                outcome="failed", detail=record.detail, **common,
            )
            return
        total_us = record.transfer_seconds * 1e6
        src_us = (
            record.bytes_moved
            / (self.node(record.source).spec.pcie_bw_gbps * 1e9) * 1e6
        )
        trace_id = tracer.new_trace()
        parent_id = tracer.emit(
            f"migrate:{record.tenant}", "migration", record.tenant,
            track="cluster", start=start, end=start + total_us,
            trace_id=trace_id, outcome="success",
            bytes_moved=record.bytes_moved, **common,
        )
        tracer.emit(
            "snapshot", "migration", record.tenant, track="cluster",
            start=start, end=start + src_us, trace_id=trace_id,
            parent_id=parent_id, node=record.source,
        )
        tracer.emit(
            "restore", "migration", record.tenant, track="cluster",
            start=start + src_us, end=start + total_us,
            trace_id=trace_id, parent_id=parent_id,
            node=record.target,
        )
        tracer.advance(total_us)

    # -- introspection --------------------------------------------------------------

    @property
    def migrations_completed(self) -> int:
        return sum(1 for record in self.migrations if record.success)

    @property
    def migrations_failed(self) -> int:
        return sum(1 for record in self.migrations if not record.success)

    def health_summary(self) -> dict[str, str]:
        return {
            node.node_id: node.monitor.state.value for node in self.nodes
        }
