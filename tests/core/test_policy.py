"""FencingMode policy tests."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.allocator import GuardianAllocator
from repro.core.policy import FencingMode
from repro.errors import PartitionError


class TestFencingMode:
    def test_four_modes(self):
        assert {mode.value for mode in FencingMode} == {
            "none", "bitwise", "modulo", "checking",
        }

    def test_extra_params_per_mode(self):
        assert FencingMode.NONE.extra_params == ()
        assert FencingMode.BITWISE.extra_params == (
            "guardian_base", "guardian_mask")
        assert FencingMode.MODULO.extra_params == (
            "guardian_base", "guardian_size", "guardian_magic")
        assert FencingMode.CHECKING.extra_params == (
            "guardian_base", "guardian_end")

    def test_only_bitwise_requires_power_of_two(self):
        assert FencingMode.BITWISE.requires_power_of_two
        assert not FencingMode.MODULO.requires_power_of_two
        assert not FencingMode.CHECKING.requires_power_of_two
        assert not FencingMode.NONE.requires_power_of_two

    def test_only_checking_detects(self):
        """Fencing contains silently; checking is the debug mode that
        can report violations (§4.4)."""
        detectors = [mode for mode in FencingMode
                     if mode.detects_violations]
        assert detectors == [FencingMode.CHECKING]


#: Carve space for the relocation property: 16 MiB at a 4 GiB base.
BASE, TOTAL = 1 << 32, 16 << 20
POW2_SIZES = [1 << shift for shift in range(12, 23)]  # 4 KiB .. 4 MiB


def _fence(mode, address, base, size):
    """Where ``mode``'s fence sends ``address`` for the partition at
    ``base`` (None: checking refuses it)."""
    if mode is FencingMode.BITWISE:
        return (address & (size - 1)) | base
    if mode is FencingMode.MODULO:
        return base + (address - base) % size
    if base <= address < base + size:
        return address
    return None


class TestRelocationRule:
    def test_table(self):
        mib = 1 << 20
        assert FencingMode.BITWISE.relocates(0, 3 * mib, mib)
        assert FencingMode.MODULO.relocates(0, 3 * mib, mib)
        assert not FencingMode.MODULO.relocates(0, 2 * mib, 3 * mib // 2)
        for mode in (FencingMode.CHECKING, FencingMode.NONE):
            assert mode.relocates(mib, mib, mib)
            assert not mode.relocates(0, mib, mib)

    @pytest.mark.parametrize("mode", list(FencingMode), ids=lambda m: m.value)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_relocates_iff_the_fence_carries_every_offset(self, mode, data):
        """Over carve/release sequences, for two bases the allocator
        hands out for one size: the rule says yes exactly when the
        mode's fence maps ``old + off`` onto ``new + off``."""
        # As GuardianServer builds its allocator for ``mode``.
        pow2 = mode.requires_power_of_two or mode is FencingMode.NONE
        allocator = GuardianAllocator(BASE, TOTAL, require_power_of_two=pow2)
        sizes = (st.sampled_from(POW2_SIZES) if pow2
                 else st.integers(1, 768).map(lambda pages: pages * 4096))
        size = data.draw(sizes)
        bases, live = [], []
        for step in range(data.draw(st.integers(2, 12))):
            if live and data.draw(st.booleans()):
                app_id = data.draw(st.sampled_from(live))
                live.remove(app_id)
                allocator.release_partition(app_id)
                continue
            want = size if data.draw(st.booleans()) else data.draw(sizes)
            try:
                partition = allocator.create_partition(f"t{step}", want)
            except PartitionError:
                continue
            live.append(partition.app_id)
            if partition.size == size:
                bases.append(partition.base)
        assume(len(bases) >= 2)
        old, new = data.draw(st.permutations(bases))[:2]
        offsets = {0, size - 1, data.draw(st.integers(0, size - 1))}
        carried = all(_fence(mode, old + offset, new, size) == new + offset
                      for offset in offsets)
        assert mode.relocates(old, new, size) == carried
