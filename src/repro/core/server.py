"""The GuardianServer — the trusted process with exclusive GPU access.

The server (the paper's *gSafeServer*, §4.2):

- creates the **single GPU context** all tenants share, with
  ``CUDA_FORCE_PTX_JIT`` set so embedded cuBINs can never bypass the
  patched PTX;
- reserves all device memory and partitions it
  (:class:`~repro.core.allocator.GuardianAllocator`);
- range-checks every host-initiated transfer against the partition
  bounds table (§4.2.2): H2D checks the destination, D2H the source,
  D2D both; violations are *fenced* — rejected before reaching the
  device;
- for every deployed binary, extracts the PTX (``cuobjdump``), patches
  it offline, loads **both** the sandboxed and the native module, and
  records the ``pointerToSymbol`` map from client kernel handles to
  ``CUfunction`` handles (§4.2.3);
- on each launch, looks up the sandboxed function (~557 cycles),
  augments the parameter array with the partition's mask/base (~400
  cycles), and issues it on the tenant's stream — or issues the
  *native* kernel when the tenant runs standalone and
  ``standalone_native`` is enabled (§4.2.3);
- gives each tenant its own CUDA stream, so different tenants' kernels
  execute concurrently (spatial sharing, §4.2.4).

Every public handler returns ``(result, server_cycles)`` — the
:class:`~repro.core.ipc.IPCChannel` charges the cycles back onto the
calling tenant's critical path.

**Concurrent dispatch (DESIGN.md §7).** With
``ServerConfig.concurrency`` enabled the server additionally books
every charge onto the calling tenant's *dispatch lane*: lane-local
work (range checks, launch lookup/augment/syscall, driver work)
advances only that tenant's lane clock, while host-side serialization
points — bounds-table writes, allocator mutations, patch-cache
misses — pass through one shared critical section, granted first
come, first served. Aggregate
host makespan (:meth:`GuardianServer.makespan_cycles`) then becomes
the critical path across lanes instead of the serial sum, and stream
releases are driven by the lane clock, so independent tenants' device
work overlaps. ``stats.cycles`` keeps its serial meaning — total work,
which with the knob off (the default) is also the makespan — so all
Table 5 numbers stay bit-identical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import (
    AdmissionRejected,
    BoundsViolation,
    GuardianError,
    KERNEL_FAULTS,
    LaunchError,
    MigrationError,
    PartitionError,
    StreamFault,
)
from repro.core.allocator import GuardianAllocator
from repro.core.patcher import (
    DiskPatchCache,
    PatchCache,
    PatchReport,
    PTXPatcher,
    patch_shared,
    patched_source,
)
from repro.core.tracecache import (
    TraceEngine,
    d2d_signature,
    h2d_signature,
    launch_signature,
    memset_signature,
)
from repro.core.policy import FencingMode
from repro.driver.api import DriverAPI
from repro.driver.fatbin import FatBinary, cuobjdump
from repro.gpu.allocator import FirstFitAllocator
from repro.gpu.device import Device
from repro.gpu.memory import MemoryImage
from repro.gpu.stream import Stream
from repro.ptx.textcache import TextCache
from repro.runtime.backend import CPU_GHZ, DriverCostModel
from repro.telemetry import Telemetry, maybe_span


#: Bound on the ``cuobjdump`` memo, in fatBIN payload bytes - what an
#: entry keeps alive is its key, the whole binary. Least recently used
#: first, as :data:`repro.core.patcher.PATCHED_CACHE_BYTES`.
EXTRACT_CACHE_BYTES = 2 * 1024 * 1024

#: Width of the patch pool the concurrency-mode charge models. No
#: threads run - the patcher is pure Python under the GIL and every
#: handler is serial - the model needs the number, not the pool.
PATCH_POOL_WIDTH = 4

#: Attr names of the hot span sites' ring rows (DESIGN.md §11).
_CHECK_ATTRS = ("what", "address", "size", "ok")
_LAUNCH_ATTRS = ("handle", "native")
_CRITICAL_ATTRS = ("stalled",)


@dataclass(frozen=True)
class ServerCostModel:
    """Server-side CPU cycles per operation (the paper's Table 5).

    ``lookup`` is the pointerToSymbol search (measured 214-900, avg
    ~557); ``augment`` is allocating and filling the extended parameter
    array (300-600, avg ~400); ``launch_syscall`` is the native
    ``cuLaunchKernel`` the server finally issues (~9000).
    """

    lookup: int = 557
    augment: int = 400
    launch_syscall: int = 9_000
    transfer_check: int = 120
    malloc: int = 350
    free: int = 300
    dispatch: int = 80
    #: Launch fast path: one hash probe replacing the pointerToSymbol
    #: search *and* the parameter-array rebuild (vs lookup + augment).
    lookup_cached: int = 180
    #: Full PTX parse + patch + emit of one module text (offline-phase
    #: work; only charged when ``ServerConfig.charge_patch_cycles``).
    patch_module: int = 600_000
    #: Content-addressed cache probe (sha256 of the text + dict hit).
    patch_lookup: int = 2_500
    #: ``cuobjdump`` extraction of one fatBIN, and the memoised probe.
    extract: int = 40_000
    extract_lookup: int = 400
    #: Disk-backed patch-cache probe that found the patched text on
    #: disk: open + read + json decode of a content-addressed file —
    #: far above a dict hit, far below a re-patch.
    patch_disk_lookup: int = 25_000
    #: Trace specialization (repro.core.tracecache, DESIGN.md §12).
    #: One guard-set evaluation per replayed block; one batched submit
    #: syscall per block (the CUDA-Graphs analogue — it replaces every
    #: per-launch ``launch_syscall`` in the block); one command-buffer
    #: cursor bump + payload pointer patch per replayed op.
    trace_guard: int = 300
    trace_submit: int = 9_000
    trace_replay_op: int = 60
    #: Vectorized bounds prologue: one numpy sweep over a block's
    #: transfer ranges (fixed setup + a few cycles per range) instead
    #: of one flat ``transfer_check`` per range.
    vector_check_base: int = 120
    vector_check_per_range: int = 4
    #: The ordinary driver work the server performs on behalf of the
    #: tenant (same costs the native backend pays directly).
    driver: DriverCostModel = DriverCostModel()


@dataclass(frozen=True)
class ServerConfig:
    """The server's switches: eight fields, the table in DESIGN.md §15.

    Everything defaults **off** so the stock server reproduces the
    paper's per-operation costs bit-for-bit (Table 5, Figure 7). The
    optimisations are this repo's beyond-the-paper work, and every
    combination of them is valid.

    - ``enable_hot_path``: the three optimisations every preset and
      benchmark turns on together. A content-addressed PTX patch cache
      keyed on ``(sha256(text), mode)`` and shared across tenants, plus
      a ``cuobjdump`` extraction memo keyed on fatBIN content (a tenant
      deploying a library some other tenant already deployed pays a
      probe instead of a full parse + patch); the launch fast path
      (each tenant's fencing parameter tuple is memoised against the
      bounds table's per-tenant epoch, so steady-state launches pay
      ``lookup_cached`` instead of ``lookup + augment``); and attaching
      clients batch their submissions (consecutive asynchronous calls
      coalesce into one flush-on-sync batch).
    - ``charge_patch_cycles``: account the offline patch/extract work
      in server cycles. Off by default because the paper reports
      patching as an offline phase outside the launch path; benchmarks
      that quantify the cache turn it on in *both* arms.
    - ``concurrency``: per-tenant dispatch lanes with overlap-aware
      cycle accounting (module docstring, DESIGN.md §7). ``stats``
      totals are unchanged; :meth:`GuardianServer.makespan_cycles` and
      stream release instants become lane-local. Contiguous chunked
      ``memcpy_*``/``memset`` ranges also collapse into one charged
      ``_check_range`` per run (the containment predicate itself is
      still evaluated for every chunk — only the modelled cost is
      coalesced).
    - ``telemetry``: per-call span tracing + the unified metrics
      registry (:mod:`repro.telemetry`, DESIGN.md §11). Observation
      only: no hook charges cycles, so every modelled total is
      bit-identical with the knob on or off — the stock default stays
      the paper's numbers *and* so does the instrumented run.
    - ``enable_trace_specialization``: record a tenant's steady-state
      sync-to-sync call sequence and, once it repeats
      :data:`~repro.core.tracecache.TRACE_HOT_THRESHOLD` consecutive
      times, replay it as one guarded fused block
      (:mod:`repro.core.tracecache`, DESIGN.md §12). Any guard failure
      or epoch bump falls back to the interpreted path bit-identically.
      A replayed block's pre-validated transfer ranges are
      range-checked in one numpy sweep at block entry (the interpreted
      path's flat per-op checks are untouched).
    - ``patch_cache_dir``: back the content-addressed patch cache with
      an on-disk store (atomic writes, versioned keys) so cold-start
      patch cost amortizes across server processes. Implies the patch
      cache. ``None`` (default) keeps the cache memory-only.
    - ``max_resident_tenants``: bounded admission (DESIGN.md §13).
      ``attach`` raises :class:`~repro.errors.AdmissionRejected` when
      the server already hosts this many tenants — the shed signal the
      open-loop load generator's backpressure path consumes. Rejection
      happens before any state is created, so resident tenants (their
      partitions, bounds epochs, streams) are untouched by construction.
      ``None`` (default) admits without bound, exactly the stock
      behaviour. Live-migration restores are *not* gated: the cluster's
      placement already decided the move, and bouncing a mid-flight
      tenant would strand it.
    - ``enable_elastic_memory``: the elastic memory engine
      (:mod:`repro.core.elastic`, DESIGN.md §14) — buddy-half shrink of
      over-provisioned partitions, intra-node compaction reusing the
      migration machinery, and swap-to-host oversubscription with
      modelled PCIe costs. Off (the default) constructs no engine and
      the server is the stock server; ``server.elastic is None`` is the
      one refusal.
    """

    enable_hot_path: bool = False
    charge_patch_cycles: bool = False
    concurrency: bool = False
    telemetry: bool = False
    enable_trace_specialization: bool = False
    patch_cache_dir: Optional[str] = None
    max_resident_tenants: Optional[int] = None
    enable_elastic_memory: bool = False

    @classmethod
    def hotpath(cls, **overrides) -> "ServerConfig":
        """All hot-path optimisations on."""
        values = dict(enable_hot_path=True)
        values.update(overrides)
        return cls(**values)

    @classmethod
    def concurrent(cls, **overrides) -> "ServerConfig":
        """Concurrent multi-tenant dispatch plus every hot-path cache."""
        values = dict(enable_hot_path=True, concurrency=True)
        values.update(overrides)
        return cls(**values)

    @classmethod
    def traced(cls, **overrides) -> "ServerConfig":
        """Every hot-path cache plus steady-state trace
        specialization."""
        values = dict(
            enable_hot_path=True,
            enable_trace_specialization=True,
        )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def elastic(cls, **overrides) -> "ServerConfig":
        """The elastic memory engine on (DESIGN.md §14)."""
        values = dict(enable_elastic_memory=True)
        values.update(overrides)
        return cls(**values)


@dataclass
class ServerStats:
    """Aggregate counters across all tenants."""

    launches: int = 0
    native_launches: int = 0
    transfers_checked: int = 0
    transfers_rejected: int = 0
    cycles: float = 0.0
    kernels_patched: int = 0
    modules_loaded: int = 0
    kernels_killed: int = 0
    # Host-side facts, not model values (so not part of equality, which
    # is how tests pin two runs of the model against each other):
    # charged patches the process had to compute, and charged patches
    # it already had the result of. DriverStats.images_built /
    # images_shared is the pair for module loads.
    patch_images_built: int = field(default=0, compare=False)
    patch_images_shared: int = field(default=0, compare=False)
    # Hot-path cache counters (all zero when the knobs are off).
    patch_cache_hits: int = 0
    patch_cache_misses: int = 0
    patch_cache_evictions: int = 0
    extract_cache_hits: int = 0
    extract_cache_misses: int = 0
    fastpath_hits: int = 0
    fastpath_misses: int = 0
    syncs: int = 0
    sync_drained_tasks: int = 0
    streams_destroyed: int = 0
    # Containment counters (only move on the quarantine path).
    tenants_quarantined: int = 0
    bytes_scrubbed: int = 0
    stream_faults_surfaced: int = 0
    # Migration counters (only move on the cluster's migrate path).
    tenants_migrated_in: int = 0
    tenants_migrated_out: int = 0
    # Concurrent-dispatch counters (zero unless the knobs are on).
    checks_coalesced: int = 0
    lanes_retired: int = 0
    # Trace-specialization counters (zero unless the knob is on).
    traces_compiled: int = 0
    trace_replays: int = 0
    trace_replay_ops: int = 0
    trace_eligible_ops: int = 0
    trace_invalidations: int = 0
    trace_guard_failures: int = 0
    trace_ranges_prechecked: int = 0
    # Disk patch-cache counters (zero unless patch_cache_dir is set).
    patch_disk_hits: int = 0
    patch_disk_writes: int = 0
    # Bounded-admission counter (zero unless max_resident_tenants set).
    admissions_rejected: int = 0
    # Elastic memory counters (zero unless an elastic knob is on).
    partitions_shrunk: int = 0
    bytes_reclaimed: int = 0
    tenants_compacted: int = 0
    bytes_compacted: int = 0
    swaps_out: int = 0
    swaps_in: int = 0
    bytes_swapped_out: int = 0
    bytes_swapped_in: int = 0

    # Rates read 0.0 until their denominator moves: a server that never
    # launched or never traced must not divide by zero.
    @property
    def patch_hit_rate(self) -> float:
        return _share(self.patch_cache_hits,
                      self.patch_cache_hits + self.patch_cache_misses)

    @property
    def extract_hit_rate(self) -> float:
        return _share(self.extract_cache_hits,
                      self.extract_cache_hits + self.extract_cache_misses)

    @property
    def fastpath_hit_rate(self) -> float:
        return _share(self.fastpath_hits,
                      self.fastpath_hits + self.fastpath_misses)

    @property
    def trace_replay_rate(self) -> float:
        """Share of trace-eligible async ops served by replay."""
        return _share(self.trace_replay_ops, self.trace_eligible_ops)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


@dataclass(frozen=True)
class _ModuleLoad:
    """Everything needed to replay one module load on another node.

    ``handles`` are the client handles this load handed out (reused
    verbatim on restore so the client's handles stay valid);
    ``global_offsets`` pin each ``.global`` symbol's placement
    *relative to the partition base*, so the restore can re-load the
    module with its statics exactly where the migrated partition bytes
    already put their contents.
    """

    ptx_text: str
    patched_text: str
    reports: tuple
    #: kernel name -> client handle.
    handles: tuple[tuple[str, int], ...]
    #: global symbol name -> offset from the partition base.
    global_offsets: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class TenantSnapshot:
    """A quiesced tenant's partition, ready to land somewhere else.

    Produced by :meth:`GuardianServer.snapshot_tenant` after draining
    the tenant's stream; landed by :meth:`GuardianServer.restore_tenant`
    on a peer (live migration), or on the same server by a compaction
    or a swap-in (a swap image is a snapshot held in host memory). All
    addresses inside are partition-relative (heap state, global
    offsets) except ``source_base``, which the landing checks against
    :meth:`FencingMode.relocates` and the cluster client translates the
    tenant's still-held pointers from.
    """

    app_id: str
    size: int
    source_base: int
    #: The partition's bytes, as the pages that hold them.
    data: MemoryImage
    heap_free: tuple[tuple[int, int], ...]
    heap_live: tuple[tuple[int, int], ...]
    modules: tuple[_ModuleLoad, ...]
    next_handle: int
    fencing_mode: str
    #: The tenant's modelled L2 residency (partition-relative line
    #: addresses, MRU-first per set). The landing installs them at the
    #: new base — the migration copy lands through L2, like a real
    #: PCIe DMA — so post-migration kernel timing is bit-identical to
    #: a never-migrated run instead of paying a spurious cold-cache
    #: penalty the tenant's own history doesn't justify.
    l2_lines: tuple[int, ...] = ()


@dataclass
class _Tenant:
    app_id: str
    stream: Stream
    #: client handle -> (sandboxed CUfunction, native CUfunction)
    functions: dict[int, tuple] = field(default_factory=dict)
    handle_counter: "itertools.count" = field(
        default_factory=lambda: itertools.count(0x4000)
    )
    patch_reports: list[PatchReport] = field(default_factory=list)
    #: Launch fast path memo: (bounds-table epoch, fencing values).
    #: Stale whenever the epoch no longer matches the table's.
    fast_launch: Optional[tuple[int, list]] = None
    #: Replayable module loads, in load order (migration feedstock).
    modules: list[_ModuleLoad] = field(default_factory=list)
    #: Monotone per-app_id attach generation; a quarantine request
    #: carrying a stale incarnation is a no-op (the tenant it targeted
    #: is already gone and a new instance took the name).
    incarnation: int = 0

    def drop_device_bindings(self) -> None:
        """Forget everything bound to the partition's current place:
        function handles, patch reports, recorded module loads and the
        launch memo. Teardown drops them for good; a move replays the
        loads its snapshot captured when the tenant lands."""
        self.functions.clear()
        self.patch_reports.clear()
        self.modules.clear()
        self.fast_launch = None


@dataclass
class _Lane:
    """Per-tenant dispatch-lane accounting (concurrency mode only).

    A lane is pure bookkeeping: ``clock`` is the lane-local instant at
    which the tenant's last host-side work completed, ``busy`` the
    total work executed on the lane's behalf, ``critical``/``stalled``
    the portions spent inside — and waiting for — the shared critical
    section. The sum of every lane's ``busy`` equals ``stats.cycles``
    (work is conserved); the max of their clocks is the makespan.
    """

    app_id: str
    clock: float = 0.0
    busy: float = 0.0
    critical: float = 0.0
    stalled: float = 0.0
    ops: int = 0


class GuardianServer:
    """The trusted GPU manager process."""

    def __init__(
        self,
        device: Device,
        mode: FencingMode = FencingMode.BITWISE,
        standalone_native: bool = False,
        config: Optional[ServerConfig] = None,
    ):
        self.device = device
        self.mode = mode
        self.costs = ServerCostModel()
        self.standalone_native = standalone_native
        self.config = config or ServerConfig()
        self.stats = ServerStats()
        # The telemetry spine (None = knob off, the stock server).
        # Channels, the supervisor, the device and the cluster all
        # resolve this attribute, so one deployment shares one tracer
        # clock and one registry.
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if self.config.telemetry else None
        )
        if self.telemetry is not None:
            device.telemetry = self.telemetry
        # Hot-path caches (None = knob off, seed behaviour). A
        # configured ``patch_cache_dir`` backs the cache with the
        # on-disk store and implies the cache even if
        # ``enable_hot_path`` wasn't set.
        if self.config.patch_cache_dir is not None:
            self._patch_cache: Optional[PatchCache] = DiskPatchCache(
                self.config.patch_cache_dir
            )
        elif self.config.enable_hot_path:
            self._patch_cache = PatchCache()
        else:
            self._patch_cache = None
        # fatBIN content -> extracted texts; the key is a tenant's
        # whole binary, so byte-bounded like the other text caches.
        self._extract_cache: Optional[TextCache] = (
            TextCache(EXTRACT_CACHE_BYTES)
            if self._patch_cache is not None else None
        )
        # The trace-specialization engine (None = knob off). Exposed as
        # a public attribute so the IPC channel — possibly through a
        # supervising wrapper's attribute fall-through — can drive its
        # client-side marshal shadow cursor off the active trace.
        self.trace_engine: Optional[TraceEngine] = (
            TraceEngine(self)
            if self.config.enable_trace_specialization else None
        )
        self._clock_ratio = device.spec.clock_ghz / CPU_GHZ
        # Concurrent-dispatch state (inert while the knob is off).
        self._concurrent = self.config.concurrency
        self._lanes: dict[str, _Lane] = {}
        self._retired_lanes: list[_Lane] = []
        self._active_lane: Optional[_Lane] = None
        self._critical_clock = 0.0
        #: app_id -> run-kind -> (record, next expected address).
        self._check_runs: dict[str, dict[str, tuple]] = {}
        # The server's driver: single context, PTX JIT forced so the
        # patched PTX always wins over embedded cuBINs.
        self.driver = DriverAPI(device, force_ptx_jit=True)
        self.context = self.driver.cuCtxCreate("guardian-server")
        # Reserve *all* remaining device memory for partitioning.
        reserve = device.allocator.bytes_free
        base = device.allocator.allocate(reserve)
        self.context.allocations.add(base)
        # Bitwise fencing needs power-of-two, size-aligned partitions;
        # modulo and checking accept arbitrary sizes (§4.4) — which is
        # exactly the capability their benchmarks exercise.
        self.allocator = GuardianAllocator(
            base, reserve,
            require_power_of_two=mode.requires_power_of_two
            or mode is FencingMode.NONE,
        )
        self.patcher = PTXPatcher(mode)
        self._tenants: dict[str, _Tenant] = {}
        #: app_id -> attach generation (see _Tenant.incarnation).
        self._incarnations: dict[str, int] = {}
        # The elastic memory engine (None = knob off, the stock
        # server). Constructed last: the engine reads the allocator
        # and telemetry attributes above.
        if self.config.enable_elastic_memory:
            from repro.core.elastic import ElasticMemoryEngine

            self.elastic: Optional[ElasticMemoryEngine] = (
                ElasticMemoryEngine(self)
            )
        else:
            self.elastic = None

    # -- tenant lifecycle (not IPC-charged: happens once at attach) -----------

    def _next_incarnation(self, app_id: str) -> int:
        generation = self._incarnations.get(app_id, 0) + 1
        self._incarnations[app_id] = generation
        return generation

    def attach(self, app_id: str, max_bytes: int):
        """Register a tenant: carve its partition, create its stream.

        With ``max_resident_tenants`` configured, a full house rejects
        the newcomer *before* any state is created — the bounded
        admission queue the open-loop load generator sheds against.
        """
        if app_id in self._tenants:
            raise GuardianError(f"app {app_id!r} already attached")
        limit = self.config.max_resident_tenants
        if limit is not None and len(self._tenants) >= limit:
            self.stats.admissions_rejected += 1
            raise AdmissionRejected(app_id, len(self._tenants), limit)
        self.allocator.create_partition(app_id, max_bytes)
        if self.trace_engine is not None:
            # A re-used app name starts its trace life cold; nothing
            # recorded by a previous incarnation may replay.
            self.trace_engine.forget(app_id)
        tenant = _Tenant(
            app_id=app_id,
            stream=self.driver.cuStreamCreate(self.context),
            incarnation=self._next_incarnation(app_id),
        )
        self._tenants[app_id] = tenant
        if self.elastic is not None:
            # Recency bookkeeping only (never charged): a tenant that
            # never launches still has a well-defined LRU age.
            self.elastic.note_use(app_id)
        if self._concurrent:
            # A fresh lane starts at the critical clock: attaching is a
            # bounds-table write, so the newcomer orders after whatever
            # serialized work is already in flight.
            self._lanes[app_id] = _Lane(
                app_id=app_id, clock=self._critical_clock
            )
            self._active_lane = self._lanes[app_id]
        return None, self.costs.dispatch

    def detach(self, app_id: str):
        """Tear a tenant down: drain and destroy its stream, drop its
        module/function handles, release its partition."""
        self._enter(app_id)
        if app_id in self._tenants:
            self._teardown_tenant(app_id, scrub=False)
        return None, self.costs.dispatch

    def grow_partition(self, app_id: str, new_max_bytes: int):
        """Dynamic partition resizing (the paper's future-work item).

        In-place buddy growth: the tenant's base address — and with it
        every pointer the tenant holds — is unchanged; only the mask
        widens, which subsequent launches pick up automatically from
        the refreshed bounds-table record.
        """
        self._enter(app_id)
        self._tenant(app_id)  # must be attached
        if self.trace_engine is not None:
            # Eager: the grow bumps the bounds epoch, so anything
            # recorded or compiled against the old record is stale now,
            # not merely at the next block entry's guard check.
            self.trace_engine.invalidate(app_id)
        partition = self.allocator.grow_partition(app_id, new_max_bytes)
        # A grow rewrites the tenant's bounds record — a serialization
        # point every lane must order against.
        self._charge(self.costs.malloc, critical=True)
        return partition.size, self.costs.malloc

    def shrink_partition(self, app_id: str):
        """Opportunistic elastic shrink (inverse of
        :meth:`grow_partition`, DESIGN.md §14; needs
        ``ServerConfig.enable_elastic_memory``).

        Releases upper buddy halves while the tenant's heap high-water
        mark fits below: base unchanged, mask narrows, bounds record
        republished under a fresh epoch. Returns the (possibly
        unchanged) partition size; a partition that cannot shrink
        charges nothing.
        """
        self._enter(app_id)
        self._tenant(app_id)  # must be attached
        if self.elastic is None:
            raise GuardianError(
                "partition shrink requires "
                "ServerConfig.enable_elastic_memory"
            )
        return self.elastic.shrink(app_id)

    @property
    def tenant_count(self) -> int:
        return len(self._tenants)

    def _tenant(self, app_id: str) -> _Tenant:
        try:
            return self._tenants[app_id]
        except KeyError:
            raise GuardianError(f"app {app_id!r} is not attached") from None

    # -- memory management (served from the tenant's partition) ----------------

    def malloc(self, app_id: str, size: int):
        self._enter(app_id)
        address = self.allocator.malloc(app_id, size)
        cycles = self.costs.malloc + self.costs.driver.malloc
        # Allocator mutations serialize across lanes.
        self._charge(cycles, critical=True)
        return address, cycles

    def free(self, app_id: str, address: int):
        self._enter(app_id)
        self.allocator.free(app_id, address)
        cycles = self.costs.free + self.costs.driver.free
        self._charge(cycles, critical=True)
        return None, cycles

    # -- checked transfers (§4.2.2) ----------------------------------------------

    def memcpy_h2d(self, app_id: str, dst: int, data: bytes,
                   stream_id: int = 0):
        self._enter(app_id)
        if self.trace_engine is not None:
            replayed = self.trace_engine.offer(
                app_id, h2d_signature(dst, len(data)), payload=data
            )
            if replayed is not None:
                return replayed
        record = self.allocator.bounds.read(app_id)
        cycles = self._check_range(app_id, record, dst, len(data),
                                   "H2D destination", run="h2d")
        tenant = self._tenant(app_id)
        cycles += self._charge(self.costs.driver.memcpy)
        self.driver.cuMemcpyHtoD(tenant.stream, dst, data, tag=app_id,
                                 release_cycles=self._release())
        return None, cycles

    def memcpy_d2h(self, app_id: str, src: int, size: int,
                   stream_id: int = 0):
        self._enter(app_id)
        record = self.allocator.bounds.read(app_id)
        cycles = self._check_range(app_id, record, src, size, "D2H source",
                                   run="d2h")
        tenant = self._tenant(app_id)
        cycles += self._charge(self.costs.driver.memcpy)
        data = self.driver.cuMemcpyDtoH(tenant.stream, src, size, tag=app_id,
                                        release_cycles=self._release())
        return data, cycles

    def memcpy_d2d(self, app_id: str, dst: int, src: int, size: int,
                   stream_id: int = 0):
        self._enter(app_id)
        if self.trace_engine is not None:
            replayed = self.trace_engine.offer(
                app_id, d2d_signature(dst, src, size)
            )
            if replayed is not None:
                return replayed
        record = self.allocator.bounds.read(app_id)
        cycles = self._check_range(app_id, record, src, size, "D2D source",
                                   run="d2d:src")
        cycles += self._check_range(app_id, record, dst, size,
                                    "D2D destination", run="d2d:dst")
        tenant = self._tenant(app_id)
        cycles += self._charge(self.costs.driver.memcpy)
        self.driver.cuMemcpyDtoD(tenant.stream, dst, src, size, tag=app_id,
                                 release_cycles=self._release())
        return None, cycles

    def memset(self, app_id: str, dst: int, value: int, size: int,
               stream_id: int = 0):
        self._enter(app_id)
        if self.trace_engine is not None:
            replayed = self.trace_engine.offer(
                app_id, memset_signature(dst, value, size)
            )
            if replayed is not None:
                return replayed
        record = self.allocator.bounds.read(app_id)
        cycles = self._check_range(app_id, record, dst, size,
                                   "memset destination", run="memset")
        tenant = self._tenant(app_id)
        cycles += self._charge(self.costs.driver.memcpy)
        self.driver.cuMemsetD8(tenant.stream, dst, value, size, tag=app_id,
                               release_cycles=self._release())
        return None, cycles

    def _check_range(self, app_id: str, record, address: int, size: int,
                     what: str, run: Optional[str] = None) -> float:
        """Charge and return one range check's cost.

        Charging happens here and nowhere else, so a handler's returned
        total (the sum of its ``_check_range``/``_charge`` returns)
        always equals the ``stats.cycles`` delta it caused — including
        on the violation path, where the check is charged and then the
        transfer is fenced off before any driver work.

        With ``concurrency`` on, contiguous chunked ranges
        of one operation kind (``run``) against one partition record
        collapse into a single charged check per run: an extension that
        starts exactly where the previous chunk ended still evaluates
        the containment predicate (safety is unchanged) but skips the
        ``transfer_check`` charge. Any discontinuity — or any bounds
        mutation, which replaces the record object — starts a new run.
        """
        if run is not None and self._concurrent:
            runs = self._check_runs.setdefault(app_id, {})
            memo = runs.get(run)
            if (
                memo is not None
                and memo[0] is record
                and memo[1] == address
                and record.contains(address, size)
            ):
                runs[run] = (record, address + size)
                self.stats.checks_coalesced += 1
                return 0.0
        self.stats.transfers_checked += 1
        cost = self._charge(self.costs.transfer_check, leaf=True)
        contained = record.contains(address, size)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.tracer.leaf_row("bounds_check", "bounds", app_id, cost,
                                      _CHECK_ATTRS, what, address, size,
                                      contained)
        if not contained:
            self.stats.transfers_rejected += 1
            raise BoundsViolation(app_id, address, size, detail=what)
        if run is not None and self._concurrent:
            self._check_runs.setdefault(app_id, {})[run] = (
                record, address + size
            )
        return cost

    # -- device code deployment (offline phase, §4.3) ------------------------------

    def register_fatbin(self, app_id: str, fatbin: FatBinary):
        """Extract, patch, and load a tenant binary's kernels.

        Returns kernel-name -> client handle. Both the sandboxed and
        the native variant are loaded so the server can pick per
        launch.
        """
        self._enter(app_id)
        tenant = self._tenant(app_id)
        with maybe_span(self.telemetry, "extract_ptx", "patch", app_id,
                        fatbin=fatbin.name):
            ptx_texts, cycles = self._extract_ptx(fatbin)
        if not ptx_texts:
            raise GuardianError(
                f"fatbin {fatbin.name!r} carries no PTX; Guardian "
                f"cannot sandbox cuBIN-only binaries"
            )
        handles, patch_cycles = self._deploy(tenant, ptx_texts)
        return handles, self.costs.dispatch + cycles + patch_cycles

    def load_module_ptx(self, app_id: str, ptx_text: str):
        """Explicit PTX load (the driver-API path some apps use): a
        deployment of one text."""
        self._enter(app_id)
        handles, cycles = self._deploy(self._tenant(app_id), (ptx_text,))
        return handles, self.costs.dispatch + cycles

    def _deploy(self, tenant: _Tenant, ptx_texts
                ) -> tuple[dict[str, int], float]:
        """Patch one deployment's texts and load each one's module
        pair; returns (kernel-name -> client handle, charged cycles)."""
        with maybe_span(self.telemetry, "patch_ptx", "patch",
                        tenant.app_id, texts=len(ptx_texts)):
            patched, cycles = self._patch_texts(ptx_texts)
        handles: dict[str, int] = {}
        for ptx_text, (patched_text, reports) in zip(ptx_texts, patched):
            handles.update(
                self._load_modules(tenant, ptx_text, patched_text, reports)
            )
        return handles, cycles

    def _extract_ptx(self, fatbin: FatBinary) -> tuple[list[str], float]:
        """``cuobjdump`` extraction, memoised on fatBIN content when
        the patch cache is enabled. Returns (texts, charged cycles)."""
        if self._extract_cache is None:
            return cuobjdump(fatbin), self._patch_charge(self.costs.extract)
        key = fatbin.content_key()
        cached = self._extract_cache.get(key)
        if cached is not None:
            self.stats.extract_cache_hits += 1
            return list(cached), self._patch_charge(
                self.costs.extract_lookup
            )
        ptx_texts = cuobjdump(fatbin)
        self._extract_cache.put(
            key, tuple(ptx_texts),
            sum(len(entry.payload) + 1 for entry in key),
        )
        self.stats.extract_cache_misses += 1
        return ptx_texts, self._patch_charge(self.costs.extract)

    def _patch_texts(self, ptx_texts
                     ) -> tuple[list[tuple[str, tuple]], float]:
        """Patch one deployment's texts, through the content-addressed
        cache when enabled; returns ``([(patched_text, reports), ...],
        charged cycles)`` in input order.

        A cache hit shares the patched text *and* the report tuple by
        reference across tenants — both are immutable once produced.

        Serial mode charges each text as it is resolved. Concurrency
        mode models a ``PATCH_POOL_WIDTH``-wide patch pool: the
        *charged span* of the cold texts is the pool's critical path —
        ``ceil(cold / width)`` rounds of ``patch_module`` through the
        shared critical section — while ``stats.cycles`` still absorbs
        the full ``cold × patch_module`` of work (work is conserved;
        only the lane clock advances by the shorter span).
        """
        cache = self._patch_cache
        stats = self.stats
        costs = self.costs
        results: list[tuple[str, tuple]] = []
        charged = 0.0
        hits = disk_hits = cold = 0
        for ptx_text in ptx_texts:
            entry, tier = (
                cache.get_with_source(ptx_text, self.mode)
                if cache is not None else (None, None)
            )
            if entry is None:
                made, shared = patch_shared(self.patcher, ptx_text)
                stats.patch_images_built += not shared
                stats.patch_images_shared += shared
                if self.telemetry is not None:
                    self.telemetry.record_deploy_images(
                        "patch", not shared, shared
                    )
                entry = (made.patched_text, made.reports)
                if cache is not None:
                    writes_before = cache.disk_writes
                    stats.patch_cache_evictions += cache.put(
                        ptx_text, self.mode, *entry
                    )
                    stats.patch_disk_writes += (
                        cache.disk_writes - writes_before
                    )
                    stats.patch_cache_misses += 1
                cold += 1
                price = costs.patch_module
            elif tier == "disk":
                stats.patch_cache_hits += 1
                stats.patch_disk_hits += 1
                disk_hits += 1
                price = costs.patch_disk_lookup
            else:
                stats.patch_cache_hits += 1
                hits += 1
                price = costs.patch_lookup
            results.append(entry)
            if not self._concurrent:
                charged += self._patch_charge(price)
        if self._concurrent:
            if hits:
                charged += self._patch_charge(costs.patch_lookup * hits)
            if disk_hits:
                charged += self._patch_charge(
                    costs.patch_disk_lookup * disk_hits
                )
            if cold:
                rounds = -(-cold // PATCH_POOL_WIDTH)
                charged += self._patch_charge(
                    costs.patch_module * rounds,
                    critical=True,
                    work=costs.patch_module * cold,
                )
        return results, charged

    def _patch_charge(self, cycles: float, critical: bool = False,
                      work: Optional[float] = None) -> float:
        """Offline-phase work is only accounted when the config says
        so — the paper keeps patching out of the measured hot path."""
        if not self.config.charge_patch_cycles:
            return 0.0
        return self._charge(cycles, critical=critical, work=work)

    def _load_modules(self, tenant: _Tenant, ptx_text: str,
                      patched_text: str, reports: tuple
                      ) -> dict[str, int]:
        """Load the sandboxed/native module pair for one already-patched
        text and hand out client handles."""
        partition = self.allocator.partition(tenant.app_id)

        def allocate_in_partition(name: str, size: int) -> int:
            return partition.malloc(size)

        tenant.patch_reports.extend(reports)
        self.stats.kernels_patched += sum(
            1 for report in reports if report.is_entry
        )
        sandboxed, native = self._load_pair(
            ptx_text, patched_text, allocate_in_partition)

        handles: dict[str, int] = {}
        for name in sandboxed.kernel_names():
            handle = next(tenant.handle_counter)
            tenant.functions[handle] = (
                self.driver.cuModuleGetFunction(sandboxed, name),
                self.driver.cuModuleGetFunction(native, name),
            )
            handles[name] = handle
        # Record the load so live migration can replay it on another
        # node: same handles, same patched text, globals pinned at the
        # same partition-relative offsets.
        tenant.modules.append(_ModuleLoad(
            ptx_text=ptx_text,
            patched_text=patched_text,
            reports=tuple(reports),
            handles=tuple(handles.items()),
            global_offsets=tuple(
                (name, address - partition.base)
                for name, address in sandboxed.global_addresses.items()
            ),
        ))
        return handles

    def _load_pair(self, ptx_text: str, patched_text: str,
                   place_global) -> tuple:
        """Load one text's sandboxed and native modules; ``place_global
        (name, size) -> address`` puts the sandboxed module's ``.global``
        arrays. Each load binds the text's module image, compiling it
        only the first time the process sees the text."""
        sandboxed = self.driver.cuModuleLoadData(
            self.context, patched_text, allocate_global=place_global,
        )
        # The native variant shares the sandboxed module's .global
        # arrays, so a tenant flipping between them keeps its statics.
        # Compiled, when it has to be, from the parse the patch was
        # made from.
        native = self.driver.cuModuleLoadData(
            self.context, ptx_text,
            allocate_global=lambda name, size: (
                sandboxed.global_addresses[name]
            ),
            parsed=patched_source(ptx_text, self.mode),
        )
        self.stats.modules_loaded += 2
        if self.telemetry is not None:
            shared = (sandboxed.compiled.image_shared
                      + native.compiled.image_shared)
            self.telemetry.record_deploy_images("module", 2 - shared, shared)
        return sandboxed, native

    # -- kernel launch (§4.2.3) -------------------------------------------------------

    def launch_kernel(self, app_id: str, handle: int,
                      grid: tuple, block: tuple, params: list,
                      stream_id: int = 0):
        self._enter(app_id)
        tenant = self._tenant(app_id)
        self._raise_if_wedged(tenant)
        if self.elastic is not None:
            # LRU-by-last-launch input for the swap victim picker;
            # bookkeeping only, charged nothing. Before the trace
            # offer so replayed launches refresh recency too.
            self.elastic.note_use(app_id)
        if self.trace_engine is not None:
            replayed = self.trace_engine.offer(
                app_id, launch_signature(handle, grid, block, params)
            )
            if replayed is not None:
                return replayed
        pair = tenant.functions.get(handle)
        if pair is None:
            raise LaunchError(
                f"app {app_id!r}: unknown kernel handle {handle:#x}"
            )
        sandboxed, native = pair

        use_native = (
            self.standalone_native
            and self.tenant_count == 1
        ) or self.mode is FencingMode.NONE
        if use_native:
            # pointerToSymbol lookup only; no parameter augmentation.
            function = native
            launch_params = list(params)
            self.stats.native_launches += 1
            cycles = float(self.costs.lookup)
        else:
            # Augment the parameter array with this partition's
            # fencing values (mask and base for bitwise, ...).
            extra, cycles = self._launch_extras(tenant)
            launch_params = list(params) + extra
            function = sandboxed

        cycles += self.costs.launch_syscall
        self.stats.launches += 1
        self._charge(cycles, leaf=True)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.tracer.leaf_row("launch", "launch", app_id, cycles,
                                      _LAUNCH_ATTRS, handle, use_native)
        try:
            self.driver.cuLaunchKernel(
                function, grid, block, launch_params, tenant.stream,
                tag=app_id, release_cycles=self._release(),
            )
        except KERNEL_FAULTS as failure:
            # TReM-style revocation (§4.3, [53]): a runaway or faulting
            # kernel is terminated and reported to its *own* tenant;
            # other tenants' partitions and streams are untouched.
            self.stats.kernels_killed += 1
            raise GuardianError(
                f"tenant {app_id!r}: kernel terminated by the server "
                f"({failure})"
            ) from failure
        return None, cycles

    def _launch_extras(self, tenant: _Tenant) -> tuple[list, float]:
        """Fencing parameter values for a sandboxed launch, plus the
        host cycles to produce them.

        Slow path (paper Table 5): pointerToSymbol lookup + parameter
        array augmentation. Fast path: the tenant's fencing tuple is
        memoised against the bounds table's per-tenant epoch, so a
        steady-state launch pays a single cached probe; any partition
        mutation (grow/release+re-register) bumps the epoch and forces
        a rebuild that picks up the widened mask.
        """
        if self.config.enable_hot_path:
            epoch = self.allocator.bounds.epoch(tenant.app_id)
            memo = tenant.fast_launch
            if memo is not None and memo[0] == epoch:
                self.stats.fastpath_hits += 1
                return memo[1], float(self.costs.lookup_cached)
            record = self.allocator.bounds.read(tenant.app_id)
            extra = record.extra_param_values(self.mode)
            tenant.fast_launch = (epoch, extra)
            self.stats.fastpath_misses += 1
            return extra, float(self.costs.lookup + self.costs.augment)
        record = self.allocator.bounds.read(tenant.app_id)
        extra = record.extra_param_values(self.mode)
        return extra, float(self.costs.lookup + self.costs.augment)

    # -- misc --------------------------------------------------------------------------

    def create_stream(self, app_id: str):
        """Per-tenant stream handle.

        All of a tenant's work funnels through its single server
        stream — the paper's in-order-per-application guarantee
        (§4.2.4) — so extra client streams alias the same server
        stream.
        """
        self._enter(app_id)
        tenant = self._tenant(app_id)
        return tenant.stream.stream_id, self.costs.dispatch

    def synchronize(self, app_id: str):
        """Drain the tenant's stream.

        Functionally every submitted operation already executed (the
        deferred timing model), so the drain records how many pending
        operations the wait covered; their timing is resolved by the
        device's next timeline pass. Unknown tenants are rejected —
        sync is a per-tenant operation, not a broadcast.
        """
        self._enter(app_id)
        tenant = self._tenant(app_id)
        self._raise_if_wedged(tenant)
        if self.trace_engine is not None:
            # Sync delimits trace blocks: closes the recorder's current
            # block (compiling it once stable) or rewinds a fully
            # replayed one.
            self.trace_engine.block_boundary(app_id)
        self.stats.syncs += 1
        self.stats.sync_drained_tasks += self.driver.cuStreamSynchronize(
            tenant.stream
        )
        return None, self.costs.dispatch

    def _raise_if_wedged(self, tenant: _Tenant) -> None:
        """Surface a sticky asynchronous stream fault at an ordering
        point — CUDA's sticky-context-error semantics. Checking a
        healthy stream is a no-cost predicate, so the stock per-op
        costs are unchanged."""
        if tenant.stream.fault is not None:
            self.stats.stream_faults_surfaced += 1
            raise StreamFault(tenant.app_id, tenant.stream.fault)

    # -- quarantine (containment mechanics; policy lives in the supervisor) ----

    def quarantine(self, app_id: str, reason: str = "",
                   incarnation: Optional[int] = None) -> int:
        """Forcibly evict a tenant, leaving nothing reusable behind.

        The containment sequence the TenantSupervisor escalates to:

        1. drain and destroy the tenant's stream (clears any sticky
           fault with it),
        2. drop its module/function handles and launch memo,
        3. **scrub** the partition — zero every byte — before the
           region returns to the free list, so no later tenant can
           read the evicted tenant's data,
        4. release the partition.

        Other tenants are untouched by construction: their bounds
        records (and epochs), partitions, streams and handles are
        separate objects the sequence never reaches — in concurrency
        mode the quarantine drains *one lane*, not the world: the
        victim's lane is retired (its clock still counts toward the
        makespan — the work happened) while sibling lanes, their
        clocks and their check-run memos are never touched. Returns the
        number of bytes scrubbed.

        **Idempotent**: a second quarantine of the same tenant — e.g.
        a supervisor escalation racing a cluster-initiated drain — is
        a no-op (returns 0, no counters move, nothing is re-scrubbed).
        Callers holding a decision made against an earlier view of the
        tenant pass the ``incarnation`` they observed: if the name has
        since been re-attached by a new instance, the stale request is
        ignored rather than evicting the innocent newcomer.
        """
        tenant = self._tenants.get(app_id)
        if tenant is None:
            return 0
        if incarnation is not None and tenant.incarnation != incarnation:
            return 0
        scrubbed = self._teardown_tenant(app_id, scrub=True)
        self.stats.tenants_quarantined += 1
        self.stats.bytes_scrubbed += scrubbed
        return scrubbed

    def _teardown_tenant(self, app_id: str, scrub: bool) -> int:
        """Shared mechanics of detach, quarantine and evacuate: drain
        and destroy the stream, drop handles/memos, release (and
        optionally scrub) the partition, retire the lane. Returns the
        bytes scrubbed (0 when ``scrub`` is off)."""
        if self.trace_engine is not None:
            self.trace_engine.forget(app_id)
        if self.elastic is not None:
            self.elastic.forget(app_id)
        tenant = self._tenants.pop(app_id)
        # Submitted work keeps its functional effects (the deferred
        # timeline model); the drain records what the teardown waited
        # on, then the stream's driver state is freed.
        self.stats.sync_drained_tasks += self.driver.cuStreamSynchronize(
            tenant.stream
        )
        self.driver.cuStreamDestroy(self.context, tenant.stream)
        self.stats.streams_destroyed += 1
        tenant.drop_device_bindings()
        released = self.allocator.release_partition(
            app_id, scrubber=self.device.memory.fill if scrub else None
        )
        self._retire_lane(app_id)
        return released.size if scrub and released is not None else 0

    # -- live migration endpoints (cluster control plane, DESIGN.md §10) -------

    def snapshot_tenant(self, app_id: str,
                        l2: bool = True) -> TenantSnapshot:
        """Quiesce a tenant and capture everything a landing needs:
        drain the stream (in-order-per-application means a drained
        stream is a consistent cut), then copy the partition bytes, the
        heap's free/live lists (partition-relative), the module loads
        and, with ``l2``, the tenant's L2 residency (a swap-out parks
        without it: its image waits in host memory, not in cache).

        The tenant stays attached — snapshotting is read-only — so an
        aborted migration needs no rollback. A wedged stream refuses to
        quiesce: the sticky fault is surfaced instead, and the caller's
        escalation path (quarantine) takes over.
        """
        tenant = self._tenant(app_id)
        self._raise_if_wedged(tenant)
        self.stats.sync_drained_tasks += self.driver.cuStreamSynchronize(
            tenant.stream
        )
        partition = self.allocator.partition(app_id)
        heap_free, heap_live = partition.heap.export_state()
        return TenantSnapshot(
            app_id=app_id,
            size=partition.size,
            source_base=partition.base,
            data=self.device.memory.snapshot(partition.base, partition.size),
            heap_free=tuple(heap_free),
            heap_live=tuple(heap_live),
            modules=tuple(tenant.modules),
            next_handle=max(tenant.functions, default=0x4000 - 1) + 1,
            fencing_mode=self.mode.value,
            l2_lines=tuple(
                address - partition.base
                for address in self.device.hierarchy.l2.export_lines(
                    partition.base, partition.base + partition.size
                )
            ) if l2 else (),
        )

    def restore_tenant(self, snapshot: TenantSnapshot) -> int:
        """Adopt a snapshotted tenant from a peer: a new tenant, landed
        (:meth:`_land`) with the same client handles. The destination
        trace engine starts the tenant cold — any state a same-named
        tenant left behind here is forgotten, and nothing recorded on
        the source node travels in the snapshot — so a specialized trace
        can never replay against a stale epoch, stream, or base address
        after a migration. Returns the new partition base.
        """
        if snapshot.app_id in self._tenants:
            raise MigrationError(
                f"cannot restore {snapshot.app_id!r}: already attached"
            )
        if snapshot.fencing_mode != self.mode.value:
            raise MigrationError(
                f"cannot restore {snapshot.app_id!r}: snapshot fenced "
                f"for {snapshot.fencing_mode!r}, this server runs "
                f"{self.mode.value!r}"
            )
        if len(snapshot.data) != snapshot.size:
            raise MigrationError(
                f"cannot restore {snapshot.app_id!r}: snapshot carries "
                f"{len(snapshot.data)} of {snapshot.size} bytes"
            )
        # The stream is created once the landing has succeeded.
        tenant = _Tenant(
            app_id=snapshot.app_id, stream=None,
            handle_counter=itertools.count(snapshot.next_handle),
        )
        base = self._land(tenant, snapshot)
        tenant.stream = self.driver.cuStreamCreate(self.context)
        tenant.incarnation = self._next_incarnation(snapshot.app_id)
        self._tenants[snapshot.app_id] = tenant
        if self.elastic is not None:
            self.elastic.note_use(snapshot.app_id)
        if self._concurrent:
            self._lanes[snapshot.app_id] = _Lane(
                app_id=snapshot.app_id, clock=self._critical_clock
            )
            self._active_lane = self._lanes[snapshot.app_id]
        self.stats.tenants_migrated_in += 1
        return base

    def _land(self, tenant: _Tenant, snapshot: TenantSnapshot) -> int:
        """Move ``tenant`` into a fresh partition holding ``snapshot`` —
        the one landing every move shares (migration, compaction,
        swap-in).

        Carves the partition (bounds published at the new base under a
        fresh epoch) and asks :meth:`FencingMode.relocates` once whether
        the fence carries the tenant's pointers there from
        ``snapshot.source_base``; if not, releases the carve and raises
        :class:`PartitionError`, naming the fence, before any byte is
        written. Otherwise writes the bytes, heap and L2 lines, replays
        every module load with its globals pinned at their recorded
        partition-relative offsets (no re-patch; while the process holds
        the texts' images a reload is two binds) and rebases the bound
        client. Returns the new base.
        """
        partition = self.allocator.create_partition(
            snapshot.app_id, snapshot.size
        )
        base = partition.base
        if not self.mode.relocates(snapshot.source_base, base,
                                   snapshot.size):
            self.allocator.release_partition(snapshot.app_id)
            raise PartitionError(
                f"cannot land {snapshot.app_id!r} at {base:#x}: "
                f"{self.mode.value} fencing does not carry its pointers "
                f"from {snapshot.source_base:#x}"
            )
        if self.trace_engine is not None:
            self.trace_engine.forget(snapshot.app_id)
        self.device.memory.restore(base, snapshot.data)
        partition.heap = FirstFitAllocator.from_state(
            base, partition.size,
            list(snapshot.heap_free), list(snapshot.heap_live),
        )
        self.device.hierarchy.l2.install_lines(tuple(
            base + offset for offset in snapshot.l2_lines
        ))
        for load in snapshot.modules:
            pinned = {name: base + offset
                      for name, offset in load.global_offsets}
            tenant.patch_reports.extend(load.reports)
            sandboxed, native = self._load_pair(
                load.ptx_text, load.patched_text,
                lambda name, size: pinned[name])
            for name, handle in load.handles:
                tenant.functions[handle] = (
                    self.driver.cuModuleGetFunction(sandboxed, name),
                    self.driver.cuModuleGetFunction(native, name),
                )
            tenant.modules.append(load)
        if self.elastic is not None:
            self.elastic.rebase_client(snapshot.app_id, base)
        return base

    def evacuate(self, app_id: str) -> int:
        """Source-side epilogue of a completed migration: the tenant
        now lives elsewhere, so tear down its local remains — same
        mechanics as quarantine (the partition is scrubbed before the
        region frees; the bytes moved with the tenant) but counted as a
        migration out, not an eviction. Idempotent like quarantine.
        Returns the bytes scrubbed."""
        if app_id not in self._tenants:
            return 0
        scrubbed = self._teardown_tenant(app_id, scrub=True)
        self.stats.tenants_migrated_out += 1
        self.stats.bytes_scrubbed += scrubbed
        return scrubbed

    def get_spec(self, app_id: str):
        self._enter(app_id)
        return self.device.spec, self.costs.dispatch

    def patch_reports(self, app_id: str) -> list[PatchReport]:
        return self._tenant(app_id).patch_reports

    # -- lane accounting (concurrent dispatch, DESIGN.md §7) --------------------

    def _enter(self, app_id: str) -> None:
        """Route the handler's subsequent charges onto ``app_id``'s
        dispatch lane. A no-op in serial mode; unknown tenants simply
        leave no lane active (their handlers raise before charging)."""
        if not self._concurrent:
            return
        lane = self._lanes.get(app_id)
        self._active_lane = lane
        if lane is not None:
            lane.ops += 1

    def _charge(self, cycles: float, critical: bool = False,
                work: Optional[float] = None, leaf: bool = False) -> float:
        """Add host work to the server's busy clock; returns the amount
        so call sites can sum exactly what they charged.

        ``work`` defaults to ``cycles``; the parallel patch path passes
        a larger ``work`` (total cycles executed across the pool) with
        a smaller ``cycles`` span (the pool's critical path), so
        ``stats.cycles`` conserves work while the lane clock advances
        by wall time. ``critical`` charges route through the shared
        critical section, first come, first served: the active lane
        enters as soon as both it and the section are free, then
        occupies the section for ``cycles`` — that's how bounds
        writes, allocator mutations and patch-cache misses serialize
        across lanes.

        ``leaf=True`` leaves the tracer's cursor to the caller, which
        records the charge as a :meth:`SpanTracer.leaf` of ``cycles``
        (a plain, non-critical charge only).
        """
        work_cycles = cycles if work is None else work
        self.stats.cycles += work_cycles
        lane = self._active_lane
        stalled = 0.0
        if lane is not None:
            lane.busy += work_cycles
            if critical:
                start = max(lane.clock, self._critical_clock)
                stalled = start - lane.clock
                lane.stalled += stalled
                lane.clock = start + cycles
                lane.critical += cycles
                self._critical_clock = lane.clock
            else:
                lane.clock += cycles
        telemetry = self.telemetry
        if telemetry is not None:
            # The tracer's cursor mirrors the busy clock: this is the
            # ONLY place it advances, so span durations are exactly
            # the charged work. Critical-section occupancy gets its
            # own span (nested inside the dispatch's call span).
            if critical:
                telemetry.tracer.leaf_row(
                    "critical_section", "critical",
                    lane.app_id if lane is not None else "", work_cycles,
                    _CRITICAL_ATTRS, stalled,
                )
            elif not leaf:
                telemetry.tracer.advance(work_cycles)
        return cycles

    def _release(self) -> float:
        """Device-clock instant at which the server finished issuing
        the current operation. In serial mode the server processes all
        tenants' calls on one timeline, so releases are monotone across
        tenants — the server-bottleneck effect of §6.1. In concurrency
        mode the release is the *lane's* clock: monotone per tenant,
        which is all the in-order-per-application guarantee needs, and
        precisely what lets independent tenants' device work overlap."""
        if self._active_lane is not None:
            return self._active_lane.clock * self._clock_ratio
        return self.stats.cycles * self._clock_ratio

    def makespan_cycles(self) -> float:
        """Host-side completion time of everything dispatched so far.

        Serial mode: the busy clock itself (sum of all charges).
        Concurrency mode: the critical path — the latest lane clock
        across live *and* retired lanes (quarantined work still
        happened) and the shared section's clock.
        """
        if not self._concurrent:
            return self.stats.cycles
        clocks = [lane.clock for lane in self._lanes.values()]
        clocks.extend(lane.clock for lane in self._retired_lanes)
        clocks.append(self._critical_clock)
        return max(clocks, default=0.0)

    def lane_speedup(self) -> float:
        """Modelled speedup over serial dispatch: the busy clock over
        the makespan (1.0 in serial mode and before any work)."""
        makespan = self.makespan_cycles()
        return self.stats.cycles / makespan if makespan else 1.0

    def lanes(self) -> list[_Lane]:
        """Every lane ever created (live first, then retired)."""
        return list(self._lanes.values()) + list(self._retired_lanes)

    def lane_view(self, app_id: str) -> Optional[_Lane]:
        """The tenant's live lane, or None (serial mode / retired)."""
        return self._lanes.get(app_id)

    def _retire_lane(self, app_id: str) -> None:
        """Fold a departing tenant's lane into the retired set and drop
        its coalesced-check memos. Sibling lanes are untouched."""
        self._check_runs.pop(app_id, None)
        lane = self._lanes.pop(app_id, None)
        if lane is not None:
            self._retired_lanes.append(lane)
            self.stats.lanes_retired += 1
            if self._active_lane is lane:
                self._active_lane = None
