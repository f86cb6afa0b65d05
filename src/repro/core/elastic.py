"""The elastic memory engine: shrink, compact, oversubscribe.

Guardian's static power-of-two partitioning (paper §4.2.1, the stated
limitation) strands capacity under churn: a departed tenant's hole
only fits an exactly-aligned newcomer, so offered load sheds while the
GPU sits fragmented. This module (DESIGN.md §14) recovers that
capacity with three mechanisms, all mediated by
:class:`ElasticMemoryEngine` behind one switch
(``ServerConfig.enable_elastic_memory``, **off by default** — the
stock server never constructs an engine and stays bit-identical to the
paper's Table 5 / Fig. 7–13 numbers):

- **Shrink**: release the upper buddy half of a partition whose heap
  high-water mark fits in the lower half — the inverse of
  ``grow_partition``, floored at :data:`MIN_PARTITION_BYTES`. The base
  address (and every tenant pointer) is unchanged; only the mask
  narrows, re-published to the bounds table under a fresh epoch.
- **Compaction**: relocate a quiesced tenant into a tighter gap by
  reusing the live-migration machinery *intra-node* — drain → snapshot
  → replay at the new base → republish bounds — authorised by
  :func:`should_defrag` on the fragmentation score
  (largest-carveable / bytes-unpartitioned). The
  tenant's pointers survive through client address virtualization
  (:class:`ElasticClient`) plus the bitwise fence, exactly like a
  cross-node migration: host-side addresses are shifted by the base
  delta, kernel pointer parameters stay virtual and the in-kernel
  ``(addr & mask) | base`` relocates them — the per-access check is
  still two mask ops.
- **Oversubscription**: admit beyond physical capacity by swapping
  the coldest resident partitions to host memory, with the PCIe
  transfer cost modelled from :attr:`DeviceSpec.pcie_bw_gbps` and
  charged to the timeline as a serialization point. Victims are picked
  LRU by last launch (attach and swap-in also refresh recency);
  :data:`OVERSUBSCRIPTION_RATIO` hard-caps the total declared bytes
  (resident + swapped) the server will carry.

Every elastic mutation keeps the PR 8 trace-specialization layer
honest: shrink invalidates the tenant's traces eagerly (epoch bump),
compaction and swap go through the forget-on-lifecycle path, so a
specialized trace can never replay against a stale base, mask, or
stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core import masks
from repro.core.policy import FencingMode
from repro.errors import GuardianError, PartitionError
from repro.gpu.allocator import FirstFitAllocator
from repro.runtime.backend import CPU_GHZ, GpuBackend

#: Hard cap on declared bytes (resident + swapped), as a multiple of
#: physical capacity.
OVERSUBSCRIPTION_RATIO = 2.0

#: How far a shrink may halve a partition.
MIN_PARTITION_BYTES = 4096

#: Fragmentation score below which a background defrag is authorised:
#: less than half the free bytes are reachable by the largest carve.
DEFRAG_THRESHOLD = 0.5


def should_defrag(view: dict, want_bytes: int = 0) -> bool:
    """Whether compaction should run now.

    ``view`` is :meth:`ElasticMemoryEngine.fragmentation`'s dict;
    ``want_bytes`` the partition size the caller is trying to place (0
    for a background sweep). True when free space is badly stranded
    (score under :data:`DEFRAG_THRESHOLD`) or, when placing, whenever
    the free bytes could hold the partition but no single gap can —
    the moment compaction converts stranded capacity into an
    admission. A pure function of its arguments (deterministic
    replans); the engine still only moves tenants whose relocation
    strictly lowers their base.
    """
    if (want_bytes
            and view["bytes_unpartitioned"] >= want_bytes
            and view["largest_carveable"] < want_bytes):
        return True
    return view["score"] < DEFRAG_THRESHOLD


@dataclass(frozen=True)
class _SwapImage:
    """A swapped-out partition, parked in host memory.

    Everything a swap-in needs to rebuild the partition at a (possibly
    different) base: the raw bytes, the heap's partition-relative
    free/live lists, and the module images to replay with their
    globals pinned at the recorded offsets. The tenant object itself
    (stream, incarnation, handles-to-come) stays attached on the
    server — swapping moves the *partition*, not the tenant.
    """

    app_id: str
    size: int
    data: bytes
    heap_free: tuple[tuple[int, int], ...]
    heap_live: tuple[tuple[int, int], ...]
    modules: tuple
    base_at_swap: int


class ElasticMemoryEngine:
    """One server's elastic memory mechanics (DESIGN.md §14).

    Constructed by :class:`~repro.core.server.GuardianServer` iff
    ``ServerConfig.enable_elastic_memory``; ``server.elastic`` is
    ``None`` otherwise. The engine's passive hooks (:meth:`note_use`,
    :meth:`forget`) are pure bookkeeping — they never charge a cycle —
    so a server with the engine on but no elastic operation invoked
    stays bit-identical to stock (pinned by a hypothesis property).
    """

    def __init__(self, server):
        self.server = server
        #: app_id -> host-side image of a swapped-out partition.
        self._swapped: dict[str, _SwapImage] = {}
        #: app_id -> monotone recency tick (LRU victim picker input).
        self._recency: dict[str, int] = {}
        #: app_id -> bound ElasticClient, rebased after every move.
        self._clients: dict[str, object] = {}
        self._tick = 0

    # -- passive hooks (bookkeeping only, never charged) -----------------------

    def note_use(self, app_id: str) -> None:
        """Refresh a tenant's recency: called on every kernel launch
        (the LRU-by-last-launch signal) and on attach/restore/swap-in
        so a tenant that never launched still has a well-defined age."""
        self._tick += 1
        self._recency[app_id] = self._tick

    def forget(self, app_id: str) -> None:
        """Drop every trace of a departing tenant — detach, quarantine
        and evacuate all funnel here, so no host-side swap image, LRU
        entry or client binding outlives the tenant."""
        self._swapped.pop(app_id, None)
        self._recency.pop(app_id, None)
        self._clients.pop(app_id, None)
        self._publish_state()

    def bind_client(self, app_id: str, client) -> None:
        """Register the tenant's :class:`ElasticClient` so the engine
        can rebase it after a compaction or swap-in moves the base."""
        self._clients[app_id] = client

    # -- observability ---------------------------------------------------------

    @property
    def swapped_bytes(self) -> int:
        return sum(image.size for image in self._swapped.values())

    def is_swapped(self, app_id: str) -> bool:
        return app_id in self._swapped

    def fragmentation(self) -> dict:
        """The allocator's fragmentation view, published to telemetry."""
        allocator = self.server.allocator
        view = {
            "score": allocator.fragmentation_score(),
            "largest_carveable": allocator.largest_carveable(),
            "bytes_unpartitioned": allocator.bytes_unpartitioned,
            "gaps": len(allocator._gaps),
        }
        self._publish_state(score=view["score"])
        return view

    def _publish_state(self, score: Optional[float] = None) -> None:
        telemetry = self.server.telemetry
        if telemetry is None:
            return
        if score is None:
            score = self.server.allocator.fragmentation_score()
        telemetry.record_elastic_state(score, self.swapped_bytes)

    def _record_op(self, op: str, nbytes: int) -> None:
        telemetry = self.server.telemetry
        if telemetry is not None:
            telemetry.record_elastic_op(op, nbytes)

    def _swap_cycles(self, nbytes: int) -> float:
        """Modelled PCIe transfer cost of moving ``nbytes`` once,
        in host CPU cycles: bytes / bandwidth, scaled onto the CPU
        clock (the GPU System Calls lesson — host services get explicit
        cycle costs, not hand-waves)."""
        return nbytes * CPU_GHZ / self.server.device.spec.pcie_bw_gbps

    # -- shrink ----------------------------------------------------------------

    def shrink(self, app_id: str) -> tuple[int, float]:
        """Shrink one tenant's partition to its buddy-halving floor.

        Returns ``(new size, charged cycles)``; a partition that cannot
        shrink (high-water in the upper half, already at the floor, or
        currently swapped out) returns unchanged with zero charge —
        shrink is opportunistic. An actual shrink republishes the
        bounds record (epoch bump, mask narrows, base unchanged),
        eagerly invalidates the tenant's specialized traces, and
        charges one ``free``-class bounds write to the timeline.
        """
        image = self._swapped.get(app_id)
        if image is not None:
            return image.size, 0.0
        server = self.server
        old_size = server.allocator.partition(app_id).size
        partition = server.allocator.shrink_partition(
            app_id, MIN_PARTITION_BYTES
        )
        if partition.size == old_size:
            return old_size, 0.0
        if server.trace_engine is not None:
            # Eager, like grow: the re-register bumped the epoch, so
            # anything recorded against the wider mask is history now,
            # not merely at the next guard check.
            server.trace_engine.invalidate(app_id)
        charged = server._charge(server.costs.free, critical=True)
        server.stats.partitions_shrunk += 1
        server.stats.bytes_reclaimed += old_size - partition.size
        self._record_op("shrink", old_size - partition.size)
        self._publish_state()
        return partition.size, charged

    def shrink_sweep(self) -> int:
        """Shrink every resident tenant that can; returns bytes
        reclaimed. Deterministic order (sorted app_id)."""
        reclaimed = 0
        allocator = self.server.allocator
        for app_id in sorted(p.app_id for p in allocator.partitions()):
            before = allocator.partition(app_id).size
            new_size, _ = self.shrink(app_id)
            reclaimed += before - new_size
        return reclaimed

    # -- compaction ------------------------------------------------------------

    def compact(self, app_id: str) -> Optional[int]:
        """Relocate one quiesced tenant into the lowest gap that fits.

        Reuses the migration machinery intra-node: drain → snapshot →
        evacuate (scrubbed) → restore at the first-fit base → rebase
        the bound client. Returns the new base, or ``None`` when no
        strictly lower placement exists (compaction never moves a
        tenant sideways or up). The modelled copy cost — one PCIe-class
        pass over the partition — is charged as a serialization point.
        """
        server = self.server
        if server.mode is not FencingMode.BITWISE:
            raise GuardianError(
                "compaction requires bitwise fencing: the fence is the "
                "client's pointer-translation layer after a move"
            )
        if app_id in self._swapped:
            return None
        target = server.allocator.best_relocation(app_id)
        if target is None:
            return None
        size = server.allocator.partition(app_id).size
        # The teardown half fires the forget hook; carry the client
        # binding and recency across the move by hand.
        client = self._clients.get(app_id)
        recency = self._recency.get(app_id)
        snapshot = server.snapshot_tenant(app_id)
        server.evacuate(app_id, scrub=True)
        new_base = server.restore_tenant(snapshot)
        server._charge(self._swap_cycles(size), critical=True)
        server.stats.tenants_compacted += 1
        server.stats.bytes_compacted += size
        if recency is not None:
            self._recency[app_id] = recency
        if client is not None:
            self._clients[app_id] = client
            client.rebase(new_base)
        self._record_op("compact", size)
        self._publish_state()
        return new_base

    def defrag(self, want_bytes: int = 0) -> list[tuple[str, int, int]]:
        """One compaction pass, when :func:`should_defrag` says so.

        It sees the current fragmentation view and ``want_bytes`` (what
        the caller is trying to place); when authorised, resident
        tenants are compacted highest-base-first — each move slides a
        tenant down, coalescing free space toward the top. Returns the
        executed moves as ``(app_id, old base, new base)``.
        """
        moves: list[tuple[str, int, int]] = []
        if not should_defrag(self.fragmentation(), want_bytes):
            return moves
        server = self.server
        candidates = sorted(
            server.allocator.partitions(),
            key=lambda partition: partition.base,
            reverse=True,
        )
        for partition in candidates:
            app_id = partition.app_id
            if app_id in self._swapped:
                continue
            old_base = server.allocator.partition(app_id).base
            new_base = self.compact(app_id)
            if new_base is not None:
                moves.append((app_id, old_base, new_base))
        return moves

    # -- oversubscription ------------------------------------------------------

    def declared_bytes(self) -> int:
        """Total declared capacity the server carries: resident
        partitions plus swapped-out images (the hard-cap denominator)."""
        return self.server.allocator.bytes_partitioned + self.swapped_bytes

    def _lru_victims(self, exclude: frozenset = frozenset()) -> list[str]:
        """Resident tenants, coldest first (LRU by last launch; attach
        and swap-in count as uses so every tenant has an age)."""
        resident = [
            p.app_id for p in self.server.allocator.partitions()
            if p.app_id not in exclude
        ]
        return sorted(resident, key=lambda a: (self._recency.get(a, 0), a))

    def swap_out(self, app_id: str) -> int:
        """Park one resident tenant's partition in host memory.

        Drains the stream (consistent cut), captures bytes + heap +
        module images, scrubs and releases the region, and charges the
        PCIe write-back to the timeline. The tenant stays attached —
        its stream, incarnation and identity survive; only the
        partition leaves the GPU. Returns the bytes swapped.
        """
        if app_id in self._swapped:
            return 0
        server = self.server
        tenant = server._tenants.get(app_id)
        if tenant is None:
            raise GuardianError(f"app {app_id!r} is not attached")
        server._raise_if_wedged(tenant)
        server.stats.sync_drained_tasks += server.driver.cuStreamSynchronize(
            tenant.stream
        )
        partition = server.allocator.partition(app_id)
        heap_free, heap_live = partition.heap.export_state()
        image = _SwapImage(
            app_id=app_id,
            size=partition.size,
            data=server.device.memory.read(partition.base, partition.size),
            heap_free=tuple(heap_free),
            heap_live=tuple(heap_live),
            modules=tuple(tenant.modules),
            base_at_swap=partition.base,
        )
        if server.trace_engine is not None:
            server.trace_engine.forget(app_id)
        # Device-side module bindings die with the region; the images
        # replay at swap-in with globals re-pinned at the new base.
        tenant.drop_device_bindings()
        scrubbed = 0

        def scrubber(base: int, size: int) -> None:
            nonlocal scrubbed
            server.device.memory.fill(base, size, 0)
            scrubbed = size

        server.allocator.release_partition(app_id, scrubber=scrubber)
        server.stats.bytes_scrubbed += scrubbed
        self._swapped[app_id] = image
        server._charge(self._swap_cycles(image.size), critical=True)
        server.stats.swaps_out += 1
        server.stats.bytes_swapped_out += image.size
        self._record_op("swap_out", image.size)
        self._publish_state()
        return image.size

    def ensure_resident(self, app_id: str) -> Optional[int]:
        """Swap a parked tenant back onto the GPU before it is used.

        Makes space if needed (shrink sweep, then colder victims swap
        out, then a defrag if authorised), re-carves the partition
        (fresh epoch at whatever base first-fit lands on), restores
        bytes + heap + modules, charges the PCIe read, refreshes
        recency and rebases the bound client. Returns the new base, or
        ``None`` when the tenant was already resident. Raises
        :class:`~repro.errors.PartitionError` when space cannot be
        made — the caller decides whether that sheds or retries.
        """
        image = self._swapped.get(app_id)
        if image is None:
            return None
        server = self.server
        if not server.allocator.can_carve(image.size):
            self._make_space(image.size, exclude=frozenset((app_id,)))
        partition = server.allocator.create_partition(app_id, image.size)
        del self._swapped[app_id]
        server.device.memory.write(partition.base, image.data)
        partition.heap = FirstFitAllocator.from_state(
            partition.base, partition.size,
            list(image.heap_free), list(image.heap_live),
        )
        tenant = server._tenants[app_id]
        for load in image.modules:
            server._restore_module(tenant, partition, load)
        server._charge(self._swap_cycles(image.size), critical=True)
        server.stats.swaps_in += 1
        server.stats.bytes_swapped_in += image.size
        self.note_use(app_id)
        client = self._clients.get(app_id)
        if client is not None:
            client.rebase(partition.base)
        self._record_op("swap_in", image.size)
        self._publish_state()
        return partition.base

    def _make_space(self, nbytes: int, exclude: frozenset) -> None:
        """Free enough GPU space to carve ``nbytes`` (best effort)."""
        allocator = self.server.allocator
        self.shrink_sweep()
        for victim in self._lru_victims(exclude):
            if allocator.can_carve(nbytes):
                return
            self.swap_out(victim)
        if not allocator.can_carve(nbytes):
            self.defrag(want_bytes=self._rounded(nbytes))

    def _rounded(self, nbytes: int) -> int:
        allocator = self.server.allocator
        if allocator.require_power_of_two:
            return masks.next_power_of_two(nbytes)
        return nbytes

    def make_room(self, max_bytes: int) -> bool:
        """Try to make an incoming ``max_bytes`` partition carveable.

        The admission ladder, cheapest rung first: (1) shrink every
        over-provisioned resident, (2) compaction when
        :func:`should_defrag` authorises it, (3) swap out LRU victims —
        but only while the declared total (resident + swapped + the
        newcomer) stays under the :data:`OVERSUBSCRIPTION_RATIO` hard
        cap. Returns whether a carve now fits; the caller retries the
        attach on True and sheds on False. Never touches anything when
        the carve already fits.
        """
        allocator = self.server.allocator
        if max_bytes <= 0:
            return False
        size = self._rounded(max_bytes)
        if allocator.can_carve(max_bytes):
            return True
        self.shrink_sweep()
        if allocator.can_carve(max_bytes):
            return True
        self.defrag(want_bytes=size)
        if allocator.can_carve(max_bytes):
            return True
        cap = int(OVERSUBSCRIPTION_RATIO * allocator.total_bytes)
        if self.declared_bytes() + size <= cap:
            for victim in self._lru_victims():
                if allocator.can_carve(max_bytes):
                    break
                self.swap_out(victim)
            if not allocator.can_carve(max_bytes):
                self.defrag(want_bytes=size)
        return allocator.can_carve(max_bytes)


class ElasticClient(GpuBackend):
    """Address-virtualizing client shim for elastic tenants.

    The intra-node sibling of the cluster's
    :class:`~repro.cluster.client.ClusterClient`: the tenant's device
    pointers are handed out against its *first* base and baked into
    its data structures; after a compaction or swap-in the partition
    sits elsewhere. The shim keeps tenant pointers virtual
    (origin-based) and translates at the boundary — host-side
    addresses shift by ``delta = current_base - origin_base``, while
    kernel pointer parameters stay virtual: partitions are
    size-aligned, so a virtual pointer's low bits *are* its partition
    offset and the in-kernel ``(addr & mask) | base`` fence relocates
    it onto the current base at zero extra cost. The per-access check
    path is unchanged — still exactly two mask ops.

    :meth:`rebase` is driven by the engine through
    :meth:`ElasticMemoryEngine.bind_client`; callers that manage moves
    by hand may call it directly.
    """

    def __init__(self, server, app_id: str, max_bytes: int, **client_kwargs):
        # Local import: repro.core.client imports the server module,
        # which imports this one — the shim resolves the cycle lazily.
        from repro.core.client import GuardianClient

        self.app_id = app_id
        self._inner = GuardianClient(
            server, app_id, max_bytes, **client_kwargs
        )
        self._origin_base = server.allocator.partition(app_id).base
        self._delta = 0
        self.rebases = 0

    @property
    def delta(self) -> int:
        """Physical-minus-virtual base offset (0 until the first move)."""
        return self._delta

    @property
    def channel(self):
        return self._inner.channel

    def rebase(self, new_base: int) -> None:
        """Point the shim's translation at the partition's new base."""
        self._delta = new_base - self._origin_base
        self.rebases += 1

    def _phys(self, virtual: int) -> int:
        return virtual + self._delta

    def _virt(self, physical: int) -> int:
        return physical - self._delta

    # -- GpuBackend interface --------------------------------------------------

    def malloc(self, size: int) -> int:
        return self._virt(self._inner.malloc(size))

    def free(self, address: int) -> None:
        self._inner.free(self._phys(address))

    def memcpy_h2d(self, dst: int, data: bytes, stream_id: int = 0) -> None:
        self._inner.memcpy_h2d(self._phys(dst), data, stream_id)

    def memcpy_d2h(self, src: int, size: int, stream_id: int = 0) -> bytes:
        return self._inner.memcpy_d2h(self._phys(src), size, stream_id)

    def memcpy_d2d(self, dst: int, src: int, size: int,
                   stream_id: int = 0) -> None:
        self._inner.memcpy_d2d(self._phys(dst), self._phys(src), size,
                               stream_id)

    def memset(self, dst: int, value: int, size: int,
               stream_id: int = 0) -> None:
        self._inner.memset(self._phys(dst), value, size, stream_id)

    def register_fatbin(self, fatbin) -> dict[str, int]:
        return self._inner.register_fatbin(fatbin)

    def load_module_ptx(self, ptx_text: str) -> dict[str, int]:
        return self._inner.load_module_ptx(ptx_text)

    def launch_kernel(self, handle, grid, block, params,
                      stream_id: int = 0) -> None:
        # Pointer parameters stay virtual: the bitwise fence relocates
        # them onto the current base in-kernel (class docstring).
        self._inner.launch_kernel(handle, grid, block, params, stream_id)

    def create_stream(self) -> int:
        return self._inner.create_stream()

    def synchronize(self) -> None:
        self._inner.synchronize()

    def get_export_table(self, table_uuid: str) -> dict:
        return self._inner.get_export_table(table_uuid)

    def device_spec(self):
        return self._inner.device_spec()

    # -- lifecycle -------------------------------------------------------------

    def grow_partition(self, new_max_bytes: int) -> int:
        if self._delta:
            raise PartitionError(
                f"tenant {self.app_id!r}: partition growth after a "
                f"relocation is not supported (the widened fence mask "
                f"would leak origin-base bits)"
            )
        return self._inner.grow_partition(new_max_bytes)

    def shrink_partition(self) -> int:
        """Request an opportunistic shrink; returns the (possibly
        unchanged) partition size. Safe at any delta: narrowing the
        mask only ever strips high bits the fence already owns."""
        return self._inner.shrink_partition()

    def flush(self) -> int:
        return self._inner.flush()

    def close(self) -> None:
        self._inner.close()
