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


def test_device_base_looks_like_paper_pointers():
    # The paper's Fig. 5 uses 0x7f... user-space-style addresses.
    assert hex(DEVICE_BASE).startswith("0x7fa")
