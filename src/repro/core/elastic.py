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
- **Compaction**: relocate a quiesced tenant into a tighter gap —
  park (snapshot, scrub, release) then land at the new base, the same
  landing a cross-node migration uses — authorised by
  :func:`should_defrag` on the fragmentation score
  (largest-carveable / bytes-unpartitioned). The tenant's pointers
  survive through :class:`ElasticClient`'s address virtualisation
  wherever :meth:`~repro.core.policy.FencingMode.relocates` says the
  fence carries them.
- **Oversubscription**: admit beyond physical capacity by swapping
  the coldest resident partitions to host memory (parked snapshots
  that land again at swap-in), with the PCIe
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

from typing import Optional

from repro.core import masks
from repro.core.client import GuardianClient
from repro.core.server import TenantSnapshot
from repro.errors import PartitionError
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
        #: app_id -> swapped-out partition, a snapshot in host memory.
        self._swapped: dict[str, TenantSnapshot] = {}
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

    def rebase_client(self, app_id: str, base: int) -> None:
        """Point the tenant's bound client, if any, at its new base
        (called by every landing)."""
        client = self._clients.get(app_id)
        if client is not None:
            client.rebase(base)

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

    def _park(self, app_id: str, l2: bool) -> TenantSnapshot:
        """Take a resident tenant's partition off the GPU, keeping the
        tenant attached (stream, incarnation, lane, handle counter):
        snapshot it (drained stream, bytes, heap, module loads and, with
        ``l2``, its L2 residency), forget its traces and device
        bindings, then scrub and release the region. The snapshot lands
        again through :meth:`GuardianServer._land`."""
        server = self.server
        snapshot = server.snapshot_tenant(app_id, l2=l2)
        if server.trace_engine is not None:
            server.trace_engine.forget(app_id)
        server._tenants[app_id].drop_device_bindings()
        server.allocator.release_partition(
            app_id, scrubber=server.device.memory.fill
        )
        server.stats.bytes_scrubbed += snapshot.size
        return snapshot

    def compact(self, app_id: str) -> Optional[int]:
        """Relocate one quiesced tenant into the lowest gap that fits.

        Park, then land at the first-fit base (the tenant stays
        attached; its bound client is rebased). Returns the new base,
        or ``None`` when no strictly lower placement exists (compaction
        never moves a tenant sideways or up) or the fencing mode cannot
        relocate the tenant's pointers there
        (:meth:`~repro.core.policy.FencingMode.relocates`). The
        modelled copy cost — one PCIe-class pass over the partition —
        is charged as a serialization point.
        """
        if app_id in self._swapped:
            return None
        server = self.server
        target = server.allocator.best_relocation(app_id)
        partition = server.allocator.partition(app_id)
        if target is None or not server.mode.relocates(
                partition.base, target, partition.size):
            return None
        snapshot = self._park(app_id, l2=True)
        new_base = server._land(server._tenants[app_id], snapshot)
        server._charge(self._swap_cycles(snapshot.size), critical=True)
        server.stats.tenants_compacted += 1
        server.stats.bytes_compacted += snapshot.size
        self._record_op("compact", snapshot.size)
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

        The snapshot carries no L2 lines; the PCIe write-back is
        charged to the timeline. The tenant stays attached — its
        stream, incarnation and identity survive; only the partition
        leaves the GPU. Returns the bytes swapped.
        """
        if app_id in self._swapped:
            return 0
        image = self._park(app_id, l2=False)
        self._swapped[app_id] = image
        self.server._charge(self._swap_cycles(image.size), critical=True)
        self.server.stats.swaps_out += 1
        self.server.stats.bytes_swapped_out += image.size
        self._record_op("swap_out", image.size)
        self._publish_state()
        return image.size

    def ensure_resident(self, app_id: str) -> Optional[int]:
        """Swap a parked tenant back onto the GPU before it is used.

        Makes space if needed (shrink sweep, then colder victims swap
        out, then a defrag if authorised), lands the image at whatever
        base first-fit picks, charges the PCIe read and refreshes
        recency. Returns the new base, or ``None`` when the tenant was
        already resident. Raises :class:`~repro.errors.PartitionError`
        when space cannot be made, or when the fencing mode cannot
        relocate the tenant's pointers to that base — the image stays
        parked, and the caller decides whether that sheds or retries.
        """
        image = self._swapped.get(app_id)
        if image is None:
            return None
        server = self.server
        if not server.allocator.can_carve(image.size):
            self._make_space(image.size, exclude=frozenset((app_id,)))
        base = server._land(server._tenants[app_id], image)
        del self._swapped[app_id]
        server._charge(self._swap_cycles(image.size), critical=True)
        server.stats.swaps_in += 1
        server.stats.bytes_swapped_in += image.size
        self.note_use(app_id)
        self._record_op("swap_in", image.size)
        self._publish_state()
        return base

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
    """The address-virtualising client shim: one tenant whose partition
    may move.

    The tenant's device pointers are handed out against its *first*
    base and baked into its data structures; after a compaction or
    swap-in (this module's engine) or a live migration to another node
    (the :class:`~repro.cluster.client.ClusterClient` subclass) the
    partition sits at a different base. Rather than rewriting the
    tenant's pointers (impossible — Guardian is transparent), the shim
    keeps them *virtual* (origin-based) and translates at the boundary:

    - every address that crosses toward the server host-side — ``free``,
      ``memcpy_*`` endpoints, ``memset`` destinations — is shifted by
      ``delta = current_base - origin_base``, and every address the
      server returns (``malloc``) is shifted back;
    - **kernel pointer parameters are deliberately left alone**: the
      bitwise fence computes ``(addr & mask) | base`` in-kernel, and
      since partitions are size-aligned, a virtual pointer's low bits
      *are* its partition offset — the fence itself relocates the
      pointer onto the current base. The sandbox instrumentation
      doubles as the pointer-translation layer at zero extra cost, which
      is why a move lands only where
      :meth:`~repro.core.policy.FencingMode.relocates` says the fence
      carries the pointers (bitwise: anywhere; modulo: a whole number
      of partition sizes away; checking and none: in place); the
      per-access check is unchanged.

    Growth after a move with a non-zero delta is refused: the widened
    mask would let origin-base bits leak through the fence.

    :meth:`rebase` is driven by the engine through
    :meth:`ElasticMemoryEngine.bind_client` and by the cluster's
    ``rebind``; callers that manage moves by hand may call it directly.
    ``rebases`` counts the moves.
    """

    def __init__(self, server, app_id: str, max_bytes: int, **client_kwargs):
        self.app_id = app_id
        self._inner = GuardianClient(
            server, app_id, max_bytes, **client_kwargs
        )
        self._origin_base = server.allocator.partition(app_id).base
        self._delta = 0
        self.rebases = 0
        self._export_tables = None

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

    # The client's own implementation, built against *this* shim, so the
    # hidden functions keep routing through translation (and, in the
    # cluster, through the current node after a rebind).
    get_export_table = GuardianClient.get_export_table

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
