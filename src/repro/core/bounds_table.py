"""The partition bounds table (paper §4.2.1).

For each application the server stores the application id, the
partition base address and the partition size; derived values (mask,
end, division magic) are **precomputed at registration** so a kernel
launch or transfer check touches no arithmetic at all — one dictionary
probe returns a record whose fields are plain attributes. The table is
consulted

- on every data transfer, to verify source/destination ranges
  (§4.2.2), and
- on every kernel launch, to fetch the extra sandbox parameters
  (§4.2.3).

**Read path (RCU-style snapshots).** Mutations (register/remove) are
rare — tenant attach, detach, partition growth — while reads happen on
every transfer and launch. The table therefore keeps its mutations
behind a writer lock and, after each one, publishes a fresh immutable
:class:`BoundsSnapshot`; hot-path readers (:meth:`read`,
:meth:`snapshot`) grab the currently-published snapshot with a single
attribute load and never touch the writer lock. A reader that raced a
writer sees either the old or the new epoch in full — never a torn
table — which is exactly the guarantee the server's concurrent
dispatch lanes need (DESIGN.md §7).

The table also maintains a per-application **epoch counter**: every
mutation of an application's record (register, remove — and therefore
partition growth, which re-registers) bumps the epoch. Consumers that
cache derived launch state (the server's launch fast path) compare
their cached epoch against :meth:`PartitionBoundsTable.epoch` and
rebuild on mismatch, so a grown partition's widened mask is always
picked up by the next launch.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.errors import PartitionError
from repro.core import masks
from repro.core.policy import FencingMode


@dataclass(frozen=True)
class PartitionRecord:
    """One row of the bounds table.

    ``end``, ``mask`` and ``magic`` are precomputed fields, not
    per-call properties: a record is built once per partition mutation
    and read on every launch and transfer, so the derived values are
    paid for at write time (``mask`` is only meaningful for
    power-of-two partitions — bitwise fencing requires them — and is 0
    for arbitrary-size partitions, which only ever use ``size``/
    ``magic``/``end``).
    """

    app_id: str
    base: int
    size: int
    #: One past the last byte of the partition.
    end: int = field(init=False, repr=False)
    #: Bitwise fence mask (``size - 1``); 0 unless size is a power of 2.
    mask: int = field(init=False, repr=False)
    #: Fixed-point reciprocal ``floor(2^64 / size)`` for modulo fencing.
    magic: int = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "end", self.base + self.size)
        object.__setattr__(
            self, "mask",
            masks.partition_mask(self.size)
            if masks.is_power_of_two(self.size) else 0,
        )
        object.__setattr__(self, "magic", masks.division_magic(self.size))

    def contains(self, address: int, length: int = 1) -> bool:
        """Is [address, address+length) entirely inside the partition?"""
        return (
            self.base <= address
            and length >= 0
            and address + length <= self.end
        )

    def contains_all(self, ranges) -> bool:
        """Is every ``(address, length)`` range inside the partition?"""
        return all(
            self.contains(address, length) for address, length in ranges
        )

    def contains_batch(self, starts, sizes) -> bool:
        """Vectorized containment over parallel numpy arrays.

        One sweep evaluates the same three-clause predicate
        :meth:`contains` applies per range — lower bound, non-negative
        length, upper bound — across the whole batch. This is how a
        replayed trace block's transfer ranges are checked, once per
        replay at block entry: the per-range predicate stays the flat
        GPUArmor-style comparison; only the loop over ranges is
        vectorized.
        """
        return bool(np.all(
            (starts >= self.base)
            & (sizes >= 0)
            & (starts + sizes <= self.end)
        ))

    def extra_param_values(self, mode: FencingMode) -> list[int]:
        """The values for ``mode``'s extra kernel parameters, in the
        order :meth:`FencingMode.extra_params` declares them."""
        if mode is FencingMode.NONE:
            return []
        if mode is FencingMode.BITWISE:
            return [self.base, self.mask]
        if mode is FencingMode.MODULO:
            return [self.base, self.size, self.magic]
        return [self.base, self.end]


class BoundsSnapshot:
    """An immutable epoch snapshot of the whole table.

    Published by writers, shared by reference with every reader until
    the next mutation; must never be mutated after construction.
    ``version`` increments with each published snapshot, so consumers
    can detect (and tests can pin) snapshot turnover.
    """

    __slots__ = ("records", "version")

    def __init__(self, records: dict[str, PartitionRecord], version: int):
        self.records = records
        self.version = version

    def read(self, app_id: str) -> PartitionRecord:
        try:
            return self.records[app_id]
        except KeyError:
            raise PartitionError(
                f"app {app_id!r} has no registered partition"
            ) from None

    def __contains__(self, app_id: str) -> bool:
        return app_id in self.records

    def __len__(self) -> int:
        return len(self.records)


class PartitionBoundsTable:
    """app id -> partition record, with range validation."""

    def __init__(self):
        self._records: dict[str, PartitionRecord] = {}
        #: Monotone per-app mutation counters (never reset, even when a
        #: record is removed — a re-attached app must not alias a stale
        #: cached epoch).
        self._epochs: dict[str, int] = {}
        #: Writer lock: mutations are serialized; readers never take it.
        self._write_lock = threading.Lock()
        self._snapshot = BoundsSnapshot({}, 0)

    # -- write path (serialized behind the lock) ---------------------------

    def register(self, app_id: str, base: int, size: int) -> PartitionRecord:
        with self._write_lock:
            if app_id in self._records:
                raise PartitionError(
                    f"app {app_id!r} already has a partition"
                )
            # Size-alignment is a bitwise-fencing requirement; partitions
            # of arbitrary size (modulo/checking modes) skip it.
            if masks.is_power_of_two(size):
                masks.check_alignment(base, size)
            record = PartitionRecord(app_id=app_id, base=base, size=size)
            self._records[app_id] = record
            self._bump_epoch(app_id)
            self._publish()
            return record

    def remove(self, app_id: str) -> None:
        with self._write_lock:
            if self._records.pop(app_id, None) is not None:
                self._bump_epoch(app_id)
                self._publish()

    def _bump_epoch(self, app_id: str) -> None:
        self._epochs[app_id] = self._epochs.get(app_id, 0) + 1

    def _publish(self) -> None:
        """Copy-on-write: the new snapshot replaces the old one in a
        single reference assignment, so concurrent readers see either
        version in full."""
        self._snapshot = BoundsSnapshot(
            dict(self._records), self._snapshot.version + 1
        )

    # -- read path (lock-free, RCU-style) ----------------------------------

    def snapshot(self) -> BoundsSnapshot:
        """The currently-published immutable snapshot."""
        return self._snapshot

    def read(self, app_id: str) -> PartitionRecord:
        """Hot-path lookup through the published snapshot — no writer
        lock, no copy; equivalent to :meth:`lookup` for any quiescent
        table."""
        return self._snapshot.read(app_id)

    def epoch(self, app_id: str) -> int:
        """Mutation count of ``app_id``'s record (0 = never registered)."""
        return self._epochs.get(app_id, 0)

    def epochs(self) -> dict[str, int]:
        """Snapshot of every app's epoch counter.

        The containment tests diff two snapshots to prove a quarantine
        touched *only* the evicted tenant's row: every other app's
        epoch must be unchanged, or its cached launch state would have
        been spuriously invalidated (or worse, silently stale).
        """
        return dict(self._epochs)

    def lookup(self, app_id: str) -> PartitionRecord:
        try:
            return self._records[app_id]
        except KeyError:
            raise PartitionError(
                f"app {app_id!r} has no registered partition"
            ) from None

    def owner_of(self, address: int) -> str | None:
        """Which tenant owns ``address`` (diagnostics only)."""
        for record in self._records.values():
            if record.contains(address):
                return record.app_id
        return None

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self._records

    def records(self) -> list[PartitionRecord]:
        return list(self._records.values())
