"""Guardian's custom GPU memory allocator (paper §4.2.1).

At server start the allocator *reserves all device memory* and carves
it into contiguous per-tenant partitions:

- partitions are **power-of-two sized and size-aligned** so the
  two-instruction bitwise fence is valid (the paper optimises for the
  common case — PyTorch's and TensorFlow's own caching allocators are
  power-of-two anyway);
- within a partition, ``cudaMalloc``/``cudaFree`` are served by a
  conventional first-fit allocator, so *the tenant sees an ordinary
  CUDA allocator* and no per-allocation metadata is needed — only the
  partition (base, size) pair, which fits in two registers.

Tenants must declare their maximum memory up front (static
partitioning, the paper's stated limitation; resizing is future work).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import AllocationError, PartitionError
from repro.core import masks
from repro.core.bounds_table import PartitionBoundsTable, PartitionRecord
from repro.gpu.allocator import FirstFitAllocator


@dataclass
class Partition:
    """One tenant's contiguous block plus its in-partition allocator."""

    record: PartitionRecord
    heap: FirstFitAllocator

    @property
    def app_id(self) -> str:
        return self.record.app_id

    @property
    def base(self) -> int:
        return self.record.base

    @property
    def size(self) -> int:
        return self.record.size

    def malloc(self, size: int) -> int:
        try:
            return self.heap.allocate(size)
        except AllocationError as exc:
            raise AllocationError(
                f"tenant {self.app_id!r}: {exc} (partition of "
                f"{self.size} bytes)"
            ) from exc

    def free(self, address: int) -> None:
        self.heap.free(address)


@dataclass
class _Gap:
    start: int
    size: int


class GuardianAllocator:
    """Reserves the whole GPU and hands out aligned partitions."""

    def __init__(self, base: int, total_bytes: int,
                 require_power_of_two: bool = True):
        self.base = base
        self.total_bytes = total_bytes
        self.require_power_of_two = require_power_of_two
        self.bounds = PartitionBoundsTable()
        self._partitions: dict[str, Partition] = {}
        self._gaps: list[_Gap] = [_Gap(base, total_bytes)]

    # -- partition lifecycle -----------------------------------------------------

    def create_partition(self, app_id: str, max_bytes: int) -> Partition:
        """Carve out a partition for a new tenant.

        ``max_bytes`` is the tenant's declared maximum; it is rounded
        up to the next power of two (bitwise-fencing requirement).
        """
        if app_id in self._partitions:
            raise PartitionError(f"app {app_id!r} already has a partition")
        if max_bytes <= 0:
            raise PartitionError(f"bad partition request: {max_bytes} bytes")
        size = (
            masks.next_power_of_two(max_bytes)
            if self.require_power_of_two
            else max_bytes
        )
        start = self._take_aligned(size)
        record = self.bounds.register(app_id, start, size)
        partition = Partition(
            record=record,
            heap=FirstFitAllocator(start, size),
        )
        self._partitions[app_id] = partition
        return partition

    def grow_partition(self, app_id: str, new_max_bytes: int) -> Partition:
        """Grow a tenant's partition in place (the paper's future-work
        item, §4.2.1, implemented for the buddy case).

        Growth doubles the partition until it covers
        ``new_max_bytes``. Because partitions are size-aligned, a
        partition can absorb exactly its *buddy* region (the block of
        equal size immediately above it) — and doing so keeps the base
        address unchanged, so every pointer the tenant already holds
        stays valid and only the mask widens. If a buddy region is
        occupied by another tenant, growth fails with
        :class:`PartitionError` (migration would invalidate tenant
        pointers, which Guardian cannot do transparently).
        """
        old = self.partition(app_id)
        if new_max_bytes <= old.size:
            return old
        target = (
            masks.next_power_of_two(new_max_bytes)
            if self.require_power_of_two
            else new_max_bytes
        )
        size = old.size
        base = old.base
        # Growth is all-or-nothing: a doubling chain that fails midway
        # (a 1M->4M grow whose first buddy is free but whose second is
        # occupied) must hand every absorbed buddy back, or those bytes
        # leak — owned by no partition and absent from the gap list.
        absorbed: list[_Gap] = []

        def _rollback_and_raise(message: str):
            for gap in absorbed:
                self._insert_gap(gap)
            raise PartitionError(message)

        while size < target:
            if base % (2 * size) != 0:
                _rollback_and_raise(
                    f"partition of {app_id!r} at {base:#x} is the high "
                    f"buddy of its pair; in-place growth impossible"
                )
            if not self._take_exact(base + size, size):
                _rollback_and_raise(
                    f"buddy region [{base + size:#x}, "
                    f"{base + 2 * size:#x}) is not free; cannot grow "
                    f"{app_id!r} without migrating it"
                )
            absorbed.append(_Gap(base + size, size))
            size *= 2

        self.bounds.remove(app_id)
        record = self.bounds.register(app_id, base, size)
        grown = Partition(record=record, heap=old.heap)
        # Hand the absorbed space to the tenant's heap as free blocks.
        grown.heap.extend(size - old.size)
        self._partitions[app_id] = grown
        return grown

    def shrink_partition(self, app_id: str,
                         min_bytes: int = 4096) -> Partition:
        """Shrink a tenant's partition in place (inverse of
        :meth:`grow_partition`, the elastic engine's reclaim step).

        Repeatedly releases the *upper buddy half* while the heap's
        high-water mark fits in the lower half: the base address — and
        with it every pointer the tenant holds — is unchanged, only the
        mask narrows, published to the bounds table under a fresh
        epoch so subsequent launches pick up the tighter fence.
        ``min_bytes`` floors the result (tiny partitions buy nothing
        and churn the bounds table). Returns the (possibly unchanged)
        partition; a partition that cannot shrink is returned as-is —
        shrink is opportunistic, never an error.
        """
        old = self.partition(app_id)
        floor = max(
            old.heap.high_water,
            masks.next_power_of_two(max(min_bytes, 1))
            if self.require_power_of_two else max(min_bytes, 1),
        )
        size = old.size
        base = old.base
        released: list[_Gap] = []
        while size // 2 >= floor and size // 2 > 0:
            half = size // 2
            # Release [base+half, base+size) — the upper buddy. The
            # heap is trimmed first so a failure (racing allocation
            # above the cut) leaves the gap list untouched.
            old.heap.shrink(half)
            released.append(_Gap(base + half, half))
            size = half
        if size == old.size:
            return old
        for gap in released:
            self._insert_gap(gap)
        self.bounds.remove(app_id)
        record = self.bounds.register(app_id, base, size)
        shrunk = Partition(record=record, heap=old.heap)
        self._partitions[app_id] = shrunk
        return shrunk

    def largest_carveable(self) -> int:
        """The largest power-of-two, size-aligned partition the gap
        list can hold right now — the numerator of the elastic
        engine's fragmentation score. 0 with no usable gap."""
        best = 0
        for gap in self._gaps:
            size = 1 << (gap.size.bit_length() - 1) if gap.size else 0
            while size > best:
                if self._find_fit(size, [gap]) is not None:
                    best = size
                    break
                size //= 2
        return best

    def fragmentation_score(self) -> float:
        """``largest_carveable / bytes_unpartitioned`` in [0, 1].

        1.0 means the free space is one perfectly usable block; low
        values mean free bytes exist but are stranded in gaps too
        small or misaligned to carve — the signal
        :func:`repro.core.elastic.should_defrag` triggers on. An
        allocator with no free bytes scores 1.0 (nothing is stranded).
        """
        free = self.bytes_unpartitioned
        if free == 0:
            return 1.0
        return self.largest_carveable() / free

    def best_relocation(self, app_id: str) -> Optional[int]:
        """Where compaction would move ``app_id``: the lowest aligned
        base the partition would land on if its own region were free,
        or ``None`` when no strictly lower placement exists.

        Non-mutating: builds a hypothetical gap view with the tenant's
        region merged in and runs the same first-fit predicate the real
        carve uses, so the planned base is exactly where
        ``create_partition`` will place the tenant after an
        evacuate/restore cycle.
        """
        partition = self.partition(app_id)
        merged: list[_Gap] = []
        own = _Gap(partition.base, partition.size)
        inserted = False
        for gap in self._gaps:
            if not inserted and own.start < gap.start:
                merged.append(_Gap(own.start, own.size))
                inserted = True
            merged.append(_Gap(gap.start, gap.size))
        if not inserted:
            merged.append(_Gap(own.start, own.size))
        coalesced: list[_Gap] = []
        for gap in merged:
            if coalesced and \
                    coalesced[-1].start + coalesced[-1].size == gap.start:
                coalesced[-1].size += gap.size
            else:
                coalesced.append(gap)
        fit = self._find_fit(partition.size, coalesced)
        if fit is None:
            return None
        _, aligned = fit
        if aligned >= partition.base:
            return None
        return aligned

    def _take_exact(self, start: int, size: int) -> bool:
        """Claim exactly [start, start+size) from the gap list.

        The gap list is start-sorted (the :meth:`_insert_gap`
        invariant), so only one gap can possibly contain ``start``: the
        rightmost gap whose start is <= it — a bisect probe, the same
        bound as insertion, instead of the previous linear scan (which
        made buddy-growth churn over a fragmented list quadratic; the
        micro-bench in tests/core/test_guardian_allocator.py pins it).
        """
        gaps = self._gaps
        index = bisect.bisect_right(
            gaps, start, key=lambda entry: entry.start
        ) - 1
        if index < 0:
            return False
        gap = gaps[index]
        if not (gap.start <= start
                and start + size <= gap.start + gap.size):
            return False
        del gaps[index]
        if gap.start < start:
            self._insert_gap(_Gap(gap.start, start - gap.start))
        tail = gap.start + gap.size - (start + size)
        if tail:
            self._insert_gap(_Gap(start + size, tail))
        return True

    def release_partition(self, app_id: str, scrubber=None) -> None:
        """Return a tenant's partition to the free list.

        ``scrubber(base, size)``, when given, runs *before* the region
        becomes allocatable again — the quarantine path uses it to zero
        the evicted tenant's memory so no later partition can observe
        stale data. The scrub must precede the gap insertion: once the
        region is in the free list a concurrent create_partition could
        hand it out.
        """
        partition = self._partitions.pop(app_id, None)
        if partition is None:
            return
        self.bounds.remove(app_id)
        if scrubber is not None:
            scrubber(partition.base, partition.size)
        self._insert_gap(_Gap(partition.base, partition.size))

    def can_carve(self, max_bytes: int) -> bool:
        """True when a partition for ``max_bytes`` could be created now.

        A non-mutating twin of :meth:`create_partition`'s carving step;
        the cluster's placement scheduler uses it to test capacity fit
        without touching the gap list. Shares :meth:`_find_fit` with
        the mutating path so the two can never disagree.
        """
        if max_bytes <= 0:
            return False
        size = (
            masks.next_power_of_two(max_bytes)
            if self.require_power_of_two
            else max_bytes
        )
        return self._find_fit(size) is not None

    def partition(self, app_id: str) -> Partition:
        try:
            return self._partitions[app_id]
        except KeyError:
            raise PartitionError(
                f"app {app_id!r} has no partition"
            ) from None

    def partitions(self) -> list[Partition]:
        return list(self._partitions.values())

    @property
    def bytes_partitioned(self) -> int:
        return sum(p.size for p in self._partitions.values())

    @property
    def bytes_unpartitioned(self) -> int:
        return sum(gap.size for gap in self._gaps)

    # -- tenant-facing allocation --------------------------------------------------

    def malloc(self, app_id: str, size: int) -> int:
        """Serve a tenant's cudaMalloc from its own partition."""
        return self.partition(app_id).malloc(size)

    def free(self, app_id: str, address: int) -> None:
        """Serve a tenant's cudaFree (ownership-checked)."""
        partition = self.partition(app_id)
        if not partition.record.contains(address):
            raise AllocationError(
                f"tenant {app_id!r} freeing 0x{address:x} outside its "
                f"partition"
            )
        partition.free(address)

    # -- size-aligned carving ---------------------------------------------------------

    def _alignment_for(self, size: int) -> int:
        """The placement alignment a ``size``-byte partition needs:
        its own size for the bitwise fence, a bounded power of two
        otherwise (arbitrary-size modes still like aligned bases)."""
        if self.require_power_of_two:
            return size
        return masks.next_power_of_two(min(size, 1 << 20))

    def _find_fit(self, size: int,
                  gaps: Optional[list[_Gap]] = None
                  ) -> Optional[tuple[int, int]]:
        """First aligned fit for ``size`` bytes: ``(gap index, aligned
        start)``, or ``None`` when no gap can hold it.

        The one fit predicate shared by :meth:`can_carve` (non-mutating
        probe), :meth:`_take_aligned` (the mutating carve), the elastic
        engine's fragmentation score (:meth:`largest_carveable`) and
        its relocation planner (:meth:`best_relocation`, which passes
        its own hypothetical ``gaps`` view).
        """
        align = self._alignment_for(size)
        for index, gap in enumerate(self._gaps if gaps is None else gaps):
            aligned = -(-gap.start // align) * align
            if gap.size - (aligned - gap.start) >= size:
                return index, aligned
        return None

    def _take_aligned(self, size: int) -> int:
        """First-fit over the gap list, honouring size-alignment.

        Alignment waste before the chosen block stays in the gap list
        and remains usable by smaller partitions.
        """
        fit = self._find_fit(size)
        if fit is None:
            raise PartitionError(
                f"cannot carve a {size}-byte aligned partition "
                f"({self.bytes_unpartitioned} bytes unpartitioned, "
                f"fragmented over {len(self._gaps)} gaps)"
            )
        index, aligned = fit
        gap = self._gaps[index]
        waste = aligned - gap.start
        remainder_start = aligned + size
        remainder_size = gap.start + gap.size - remainder_start
        del self._gaps[index]
        if waste:
            self._insert_gap(_Gap(gap.start, waste))
        if remainder_size:
            self._insert_gap(_Gap(remainder_start, remainder_size))
        return aligned

    def _insert_gap(self, gap: _Gap) -> None:
        """Insert into the start-sorted gap list.

        The list is kept sorted at all times, so insertion is a bisect
        probe and coalescing only ever needs to look at the two
        immediate neighbours — freed regions are disjoint, so no other
        gap can become adjacent. (The previous linear position scan
        plus repeated whole-list merge passes made a 1k malloc/free
        churn quadratic; the micro-bench in
        tests/core/test_guardian_allocator.py pins the new bound.)
        """
        gaps = self._gaps
        position = bisect.bisect_left(
            gaps, gap.start, key=lambda entry: entry.start
        )
        previous = gaps[position - 1] if position else None
        if previous is not None \
                and previous.start + previous.size == gap.start:
            previous.size += gap.size
            merged, index = previous, position - 1
        else:
            gaps.insert(position, gap)
            merged, index = gap, position
        if index + 1 < len(gaps):
            following = gaps[index + 1]
            if merged.start + merged.size == following.start:
                merged.size += following.size
                del gaps[index + 1]
