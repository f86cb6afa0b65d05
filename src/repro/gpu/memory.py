"""Simulated GPU global memory.

One flat device address space backed by real bytes. Addresses start at
:data:`DEVICE_BASE` (so device pointers look like the 0x7f... pointers
in the paper's Fig. 5 examples and never collide with small integers),
and every access is checked against the mapped range — an access
outside raises :class:`repro.errors.MemoryFault`, the simulator's
equivalent of an Xid error.

The backing store is **sparse**: a 16 GiB device costs nothing until
pages are touched, so full-size partitions (the Guardian allocator
reserves *all* device memory up front) are cheap to simulate. It
stays sparse under churn: zeroing a range (a scrub, a zero memset)
drops the pages it covers, and a :class:`MemoryImage` (a snapshot for
compaction, swap or migration) carries only the pages that hold data.

Isolation tests rely on this memory being *real*: when a sandboxed
kernel's out-of-bounds store wraps around into its own partition, the
bytes of the victim partition are provably untouched.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from repro.errors import MemoryFault
from repro.ptx import isa

#: Base virtual address of device global memory. Chosen so example
#: addresses resemble the paper's (0x7fa2d0000000-style) pointers.
DEVICE_BASE = 0x7F_A000_0000_00

#: Sparse backing page size. Large enough that scalar accesses almost
#: never straddle a boundary, small enough that sparse workloads stay
#: sparse.
PAGE_SIZE = 1 << 16


def _int_format(width: int, signed: bool) -> str:
    return {1: "bB", 2: "hH", 4: "iI", 8: "qQ"}[width][0 if signed else 1]


@dataclass(frozen=True)
class MemoryImage:
    """A copy of ``size`` bytes of device memory, kept page by page.

    ``chunks`` holds ``(offset, bytes)`` in ascending offset, one per
    materialised page the range overlaps, clipped to the range. Every
    byte no chunk covers is zero, so an image costs what the range has
    touched, not what it declares.
    """

    size: int
    chunks: tuple[tuple[int, bytes], ...] = ()

    def __len__(self) -> int:
        return self.size

    def prefix(self, size: int) -> MemoryImage:
        """The first ``size`` bytes (a truncated copy)."""
        return MemoryImage(size, tuple(
            (offset, chunk[: size - offset])
            for offset, chunk in self.chunks if offset < size
        ))


class GlobalMemory:
    """The device's off-chip DRAM (sparse, zero-initialised).

    Typed scalar accessors are used by the PTX executor; the bulk
    :meth:`read`/:meth:`write` methods are used by DMA transfers
    (cudaMemcpy) and by tests asserting isolation.
    """

    def __init__(self, size_bytes: int, base: int = DEVICE_BASE):
        self.base = base
        self.size = size_bytes
        self._pages: dict[int, bytearray] = {}

    @property
    def limit(self) -> int:
        """One past the highest mapped address."""
        return self.base + self.size

    @property
    def resident_bytes(self) -> int:
        """Host bytes actually materialised by the sparse store."""
        return len(self._pages) * PAGE_SIZE

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.limit

    def _check(self, address: int, size: int, kind: str) -> int:
        if not self.contains(address, size):
            raise MemoryFault(address, size, kind)
        return address - self.base

    def _page(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(PAGE_SIZE)
            self._pages[page_index] = page
        return page

    # -- bulk access (DMA) --------------------------------------------------

    def read(self, address: int, size: int) -> bytes:
        offset = self._check(address, size, "read")
        page_index, in_page = divmod(offset, PAGE_SIZE)
        if 0 < size <= PAGE_SIZE - in_page:
            page = self._pages.get(page_index)
            if page is None:
                return bytes(size)
            return bytes(page[in_page : in_page + size])
        out = bytearray(size)
        written = 0
        while written < size:
            page_index, in_page = divmod(offset + written, PAGE_SIZE)
            take = min(size - written, PAGE_SIZE - in_page)
            page = self._pages.get(page_index)
            if page is not None:
                out[written : written + take] = page[in_page : in_page + take]
            written += take
        return bytes(out)

    def write(self, address: int, data: bytes) -> None:
        size = len(data)
        offset = self._check(address, size, "write")
        page_index, in_page = divmod(offset, PAGE_SIZE)
        if 0 < size <= PAGE_SIZE - in_page:
            self._page(page_index)[in_page : in_page + size] = data
            return
        written = 0
        while written < size:
            page_index, in_page = divmod(offset + written, PAGE_SIZE)
            take = min(size - written, PAGE_SIZE - in_page)
            self._page(page_index)[in_page : in_page + take] = data[
                written : written + take
            ]
            written += take

    def fill(self, address: int, size: int, value: int = 0) -> None:
        if value & 0xFF or size <= 0:  # an empty range writes nothing
            self.write(address, bytes([value & 0xFF]) * size)
            return
        # Zeroing: a page wholly inside the range is dropped (an absent
        # page reads as zeros); only the partial pages at either end are
        # written, and only if they exist.
        offset = self._check(address, size, "write")
        pages = self._pages
        first, head = divmod(offset, PAGE_SIZE)
        last, tail = divmod(offset + size, PAGE_SIZE)
        if first == last:
            page = pages.get(first)
            if page is not None:
                page[head:tail] = bytes(tail - head)
            return
        if head:
            page = pages.get(first)
            if page is not None:
                page[head:] = bytes(PAGE_SIZE - head)
            first += 1
        if tail:
            page = pages.get(last)
            if page is not None:
                page[:tail] = bytes(tail)
        for index in range(first, last):
            pages.pop(index, None)

    def snapshot(self, address: int, size: int) -> MemoryImage:
        """Copy ``size`` bytes as the pages that hold them: pages never
        materialised are left out."""
        offset = self._check(address, size, "read")
        end = offset + size
        pages = self._pages
        chunks = []
        for index in range(offset // PAGE_SIZE, -(-end // PAGE_SIZE)):
            page = pages.get(index)
            if page is None:
                continue
            origin = index * PAGE_SIZE
            lo, hi = max(offset, origin), min(end, origin + PAGE_SIZE)
            chunks.append((lo - offset, bytes(page[lo - origin : hi - origin])))
        return MemoryImage(size, tuple(chunks))

    def restore(self, address: int, image: MemoryImage) -> None:
        """Make ``[address, address + image.size)`` hold ``image``'s
        bytes: zero the range, then write back the pages it carries."""
        self.fill(address, image.size)
        for offset, chunk in image.chunks:
            self.write(address + offset, chunk)

    def read_array(self, address: int, count: int,
                   dtype: str = "f32") -> np.ndarray:
        """Read ``count`` elements as a numpy array (host-side copy)."""
        width = isa.type_width(dtype)
        raw = self.read(address, count * width)
        return np.frombuffer(raw, dtype=NUMPY_DTYPES[dtype]).copy()

    def write_array(self, address: int, values: np.ndarray,
                    dtype: str = "f32") -> None:
        array = np.asarray(values, dtype=NUMPY_DTYPES[dtype])
        self.write(address, array.tobytes())

    # -- typed scalar access (executor hot path) ------------------------------

    def load_scalar(self, address: int, dtype: str):
        """Load one PTX-typed scalar; returns int or float."""
        width = isa.type_width(dtype)
        offset = self._check(address, width, "read")
        page_index, in_page = divmod(offset, PAGE_SIZE)
        if in_page + width <= PAGE_SIZE:
            page = self._pages.get(page_index)
            raw = (
                page[in_page : in_page + width]
                if page is not None
                else b"\x00" * width
            )
        else:
            raw = self.read(address, width)
        if isa.is_float(dtype):
            return struct.unpack("<f" if width == 4 else "<d", raw)[0]
        fmt = _int_format(width, isa.is_signed(dtype))
        return struct.unpack(f"<{fmt}", bytes(raw))[0]

    def store_scalar(self, address: int, dtype: str, value) -> None:
        width = isa.type_width(dtype)
        self._check(address, width, "write")
        if isa.is_float(dtype):
            value = float(value)
            try:
                raw = struct.pack("<f" if width == 4 else "<d", value)
            except OverflowError:
                raw = struct.pack("<f", f32_overflow(value))
        else:
            fmt = _int_format(width, isa.is_signed(dtype))
            raw = struct.pack(
                f"<{fmt}", wrap_int(int(value), width, isa.is_signed(dtype))
            )
        self.write(address, raw)


NUMPY_DTYPES = {
    "f32": np.float32,
    "f64": np.float64,
    "u8": np.uint8, "s8": np.int8, "b8": np.uint8,
    "u16": np.uint16, "s16": np.int16, "b16": np.uint16,
    "u32": np.uint32, "s32": np.int32, "b32": np.uint32,
    "u64": np.uint64, "s64": np.int64, "b64": np.uint64,
}


def f32_overflow(value: float) -> float:
    """What f32 rounding makes of a double beyond the f32 range, which
    ``struct`` refuses to pack: infinity of its sign."""
    return math.copysign(math.inf, value)


def wrap_int(value: int, width: int, signed: bool) -> int:
    """Reduce a Python int into the representable range of the type."""
    bits = width * 8
    value &= (1 << bits) - 1
    if signed and value >= 1 << (bits - 1):
        value -= 1 << bits
    return value
