"""Global memory tests: sparse backing, typed access, fault fencing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MemoryFault
from repro.gpu.memory import DEVICE_BASE, PAGE_SIZE, GlobalMemory


@pytest.fixture
def memory():
    return GlobalMemory(1 << 22)


class TestBulkAccess:
    def test_roundtrip(self, memory):
        memory.write(memory.base + 100, b"hello world")
        assert memory.read(memory.base + 100, 11) == b"hello world"

    def test_zero_initialised(self, memory):
        assert memory.read(memory.base + 5000, 16) == b"\x00" * 16

    def test_cross_page_write(self, memory):
        addr = memory.base + PAGE_SIZE - 3
        memory.write(addr, b"ABCDEFGH")
        assert memory.read(addr, 8) == b"ABCDEFGH"

    def test_fill(self, memory):
        memory.fill(memory.base, 64, 0xAB)
        assert memory.read(memory.base, 64) == b"\xab" * 64

    def test_read_below_base_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.read(memory.base - 1, 4)

    def test_read_past_limit_faults(self, memory):
        with pytest.raises(MemoryFault):
            memory.read(memory.limit - 2, 4)

    def test_write_fault_reports_address(self, memory):
        with pytest.raises(MemoryFault) as excinfo:
            memory.write(memory.limit, b"x")
        assert excinfo.value.address == memory.limit

    def test_sparse_backing_stays_sparse(self):
        # A "16 GB" device must not materialise 16 GB of host RAM.
        big = GlobalMemory(16 << 30)
        big.write(big.base + (8 << 30), b"data in the middle")
        assert big.resident_bytes <= 2 * PAGE_SIZE


class TestArrays:
    def test_float_array_roundtrip(self, memory):
        values = np.arange(100, dtype=np.float32)
        memory.write_array(memory.base, values)
        out = memory.read_array(memory.base, 100)
        assert np.array_equal(values, out)

    def test_u32_array(self, memory):
        values = np.array([1, 2, 2**31], dtype=np.uint32)
        memory.write_array(memory.base, values, dtype="u32")
        assert np.array_equal(
            memory.read_array(memory.base, 3, dtype="u32"), values
        )


class TestScalars:
    @pytest.mark.parametrize("dtype,value", [
        ("u8", 200), ("s8", -100), ("u16", 60000), ("s16", -30000),
        ("u32", 4_000_000_000), ("s32", -2_000_000_000),
        ("u64", 2**63 + 5), ("s64", -(2**62)),
        ("f32", 1.5), ("f64", -2.25),
    ])
    def test_scalar_roundtrip(self, memory, dtype, value):
        memory.store_scalar(memory.base + 64, dtype, value)
        assert memory.load_scalar(memory.base + 64, dtype) == value

    def test_unsigned_wraps(self, memory):
        memory.store_scalar(memory.base, "u32", 2**32 + 7)
        assert memory.load_scalar(memory.base, "u32") == 7

    def test_signed_wraps(self, memory):
        memory.store_scalar(memory.base, "s32", 2**31)
        assert memory.load_scalar(memory.base, "s32") == -(2**31)

    def test_scalar_at_page_boundary(self, memory):
        addr = memory.base + PAGE_SIZE - 2
        memory.store_scalar(addr, "u32", 0xDEADBEEF)
        assert memory.load_scalar(addr, "u32") == 0xDEADBEEF


class TestPropertyRoundtrip:
    @given(
        offset=st.integers(min_value=0, max_value=(1 << 22) - 64),
        data=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_write_reads_back(self, offset, data):
        memory = GlobalMemory(1 << 22)
        memory.write(memory.base + offset, data)
        assert memory.read(memory.base + offset, len(data)) == data

    @given(
        a=st.integers(min_value=0, max_value=1000),
        b=st.integers(min_value=2000, max_value=3000),
        data=st.binary(min_size=1, max_size=100),
    )
    @settings(max_examples=30, deadline=None)
    def test_disjoint_writes_independent(self, a, b, data):
        memory = GlobalMemory(1 << 20)
        memory.write(memory.base + b, b"\x55" * 100)
        memory.write(memory.base + a, data)
        assert memory.read(memory.base + b, 100) == b"\x55" * 100


PAGES = 4
_PATTERN = bytes(range(256)) * (PAGES * PAGE_SIZE // 256 + 2)

#: An offset near a page boundary (so accesses straddle) or anywhere.
_offsets = st.one_of(
    st.builds(lambda page, delta: max(0, page * PAGE_SIZE + delta),
              st.integers(min_value=1, max_value=PAGES - 1),
              st.integers(min_value=-80, max_value=80)),
    st.integers(min_value=0, max_value=PAGES * PAGE_SIZE - 1),
)
_sizes = st.one_of(st.integers(min_value=0, max_value=160),
                   st.integers(min_value=0, max_value=2 * PAGE_SIZE + 100))
_accesses = st.lists(
    st.tuples(st.booleans(), _offsets, _sizes,
              st.integers(min_value=0, max_value=255)),
    max_size=25,
)


class TestAgainstABytearray:
    """In-page accesses take one slice and straddling ones walk the
    pages; both must agree with a flat ``bytearray``, and a read must
    never materialise a page."""

    @given(accesses=_accesses)
    @settings(max_examples=150, deadline=None)
    def test_reads_and_writes_match_the_model(self, accesses):
        memory = GlobalMemory(PAGES * PAGE_SIZE)
        model = bytearray(PAGES * PAGE_SIZE)
        written_pages = set()
        for is_write, offset, size, fill in accesses:
            size = min(size, len(model) - offset)
            address = memory.base + offset
            if is_write:
                data = _PATTERN[fill:fill + size]
                memory.write(address, data)
                model[offset:offset + size] = data
                if size:
                    written_pages.update(range(
                        offset // PAGE_SIZE,
                        (offset + size - 1) // PAGE_SIZE + 1))
            else:
                resident = memory.resident_bytes
                got = memory.read(address, size)
                assert type(got) is bytes
                assert got == model[offset:offset + size]
                assert memory.resident_bytes == resident
            assert memory.resident_bytes == len(written_pages) * PAGE_SIZE
        assert memory.read(memory.base, len(model)) == model
        assert memory.resident_bytes == len(written_pages) * PAGE_SIZE


_range_ops = st.lists(
    st.tuples(st.sampled_from(["write", "zero", "fill", "copy"]),
              _offsets, _sizes, _offsets,
              st.integers(min_value=0, max_value=255)),
    max_size=25,
)


def _flat(image) -> bytes:
    """The bytes a ``MemoryImage`` stands for."""
    out = bytearray(image.size)
    for offset, chunk in image.chunks:
        out[offset:offset + len(chunk)] = chunk
    return bytes(out)


class TestZeroingAndImages:
    """A zero fill drops the pages it covers, and a ``MemoryImage``
    carries only the non-zero pages a range has materialised. Both must
    read back exactly what a flat ``bytearray`` holds."""

    def test_zeroing_an_untouched_range_materialises_nothing(self):
        memory = GlobalMemory(64 * PAGE_SIZE)
        memory.fill(memory.base + 100, 40 * PAGE_SIZE)
        assert not memory._pages

    def test_zeroing_drops_whole_pages_and_clears_the_edges(self):
        memory = GlobalMemory(8 * PAGE_SIZE)
        memory.write(memory.base, b"\xff" * (8 * PAGE_SIZE))
        memory.fill(memory.base + PAGE_SIZE // 2, 4 * PAGE_SIZE)
        assert sorted(memory._pages) == [0, 4, 5, 6, 7]
        expected = (b"\xff" * (PAGE_SIZE // 2) + bytes(4 * PAGE_SIZE)
                    + b"\xff" * (3 * PAGE_SIZE + PAGE_SIZE // 2))
        assert memory.read(memory.base, 8 * PAGE_SIZE) == expected

    def test_a_non_zero_fill_still_writes(self):
        memory = GlobalMemory(4 * PAGE_SIZE)
        memory.fill(memory.base + 10, 2 * PAGE_SIZE, 0x1AB)
        assert memory.read(memory.base + 10, 2 * PAGE_SIZE) == \
            b"\xab" * (2 * PAGE_SIZE)

    def test_zeroing_out_of_range_faults(self):
        memory = GlobalMemory(4 * PAGE_SIZE)
        with pytest.raises(MemoryFault):
            memory.fill(memory.limit - 8, 16)

    @pytest.mark.parametrize("value", [0, 0x7F])
    @pytest.mark.parametrize("offset, size", [
        (5 * PAGE_SIZE + 100, -200),  # reaches back into the page below
        (5 * PAGE_SIZE + 100, -10),   # stays inside one page
        (3 * PAGE_SIZE, 0),
    ])
    def test_an_empty_or_negative_fill_writes_nothing(self, offset, size,
                                                      value):
        memory = GlobalMemory(8 * PAGE_SIZE)
        before = b"\x5a" * (8 * PAGE_SIZE)
        memory.write(memory.base, before)
        memory.fill(memory.base + offset, size, value)
        assert memory.read(memory.base, 8 * PAGE_SIZE) == before
        assert len(memory._pages) == 8

    def test_a_negative_fill_past_the_limit_faults(self):
        memory = GlobalMemory(4 * PAGE_SIZE)
        with pytest.raises(MemoryFault):
            memory.fill(memory.limit + 100, -200)

    def test_an_image_carries_only_materialised_pages(self):
        memory = GlobalMemory(16 * PAGE_SIZE)
        memory.write(memory.base + 3 * PAGE_SIZE + 5, b"abc")
        memory.write(memory.base + 12 * PAGE_SIZE, b"outside")
        start = memory.base + PAGE_SIZE + 7
        image = memory.snapshot(start, 8 * PAGE_SIZE)
        assert len(image) == 8 * PAGE_SIZE
        assert [(offset, len(chunk)) for offset, chunk in image.chunks] \
            == [(2 * PAGE_SIZE - 7, PAGE_SIZE)]
        assert _flat(image) == memory.read(start, 8 * PAGE_SIZE)

    def test_a_restore_owns_its_pages(self):
        memory = GlobalMemory(8 * PAGE_SIZE)
        memory.write(memory.base, b"\x5a" * PAGE_SIZE)
        image = memory.snapshot(memory.base, 2 * PAGE_SIZE)
        memory.restore(memory.base + 4 * PAGE_SIZE, image)
        memory.write(memory.base + 4 * PAGE_SIZE, b"changed")
        assert _flat(image) == b"\x5a" * PAGE_SIZE + bytes(PAGE_SIZE)
        assert sorted(memory._pages) == [0, 4]

    def test_prefix_truncates(self):
        memory = GlobalMemory(4 * PAGE_SIZE)
        memory.write(memory.base + 10, b"0123456789")
        memory.write(memory.base + 2 * PAGE_SIZE, b"far")
        image = memory.snapshot(memory.base, 4 * PAGE_SIZE)
        short = image.prefix(15)
        assert len(short) == 15
        assert _flat(short) == bytes(10) + b"01234"

    @given(ops=_range_ops)
    @settings(max_examples=150, deadline=None)
    def test_fills_snapshots_and_restores_match_the_model(self, ops):
        memory = GlobalMemory(PAGES * PAGE_SIZE)
        model = bytearray(PAGES * PAGE_SIZE)
        for kind, offset, size, source, value in ops:
            size = min(size, len(model) - offset, len(model) - source)
            address = memory.base + offset
            resident = set(memory._pages)
            if kind == "write":
                data = _PATTERN[value:value + size]
                memory.write(address, data)
                model[offset:offset + size] = data
            elif kind == "zero":
                memory.fill(address, size)
                model[offset:offset + size] = bytes(size)
                assert set(memory._pages) <= resident
                assert not any(
                    offset <= index * PAGE_SIZE
                    and (index + 1) * PAGE_SIZE <= offset + size
                    for index in memory._pages)
            elif kind == "fill":
                memory.fill(address, size, value)
                model[offset:offset + size] = bytes([value]) * size
            else:
                image = memory.snapshot(memory.base + source, size)
                assert set(memory._pages) == resident
                assert _flat(image) == model[source:source + size]
                assert len(image.chunks) <= len(resident)
                memory.restore(address, image)
                model[offset:offset + size] = _flat(image)
            assert memory.read(memory.base, len(model)) == model


def test_device_base_looks_like_paper_pointers():
    # The paper's Fig. 5 uses 0x7f... user-space-style addresses.
    assert hex(DEVICE_BASE).startswith("0x7fa")
