"""Cache model tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import MemoryHierarchy, SetAssociativeCache
from repro.gpu.specs import QUADRO_RTX_A4000


class TestSetAssociativeCache:
    def test_first_access_misses(self):
        cache = SetAssociativeCache(4096, line_bytes=128)
        assert not cache.access(0)
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = SetAssociativeCache(4096, line_bytes=128)
        cache.access(0)
        assert cache.access(0)
        assert cache.stats.hits == 1

    def test_same_line_shares(self):
        cache = SetAssociativeCache(4096, line_bytes=128)
        cache.access(0)
        assert cache.access(127)       # same 128-byte line
        assert not cache.access(128)   # next line

    def test_lru_eviction(self):
        # 2-way, 2-set cache: 4 lines total.
        cache = SetAssociativeCache(512, line_bytes=128, associativity=2)
        # Fill set 0 (lines 0 and 2 map to set 0).
        cache.access(0)        # line 0 -> set 0
        cache.access(256)      # line 2 -> set 0
        cache.access(512)      # line 4 -> set 0, evicts line 0 (LRU)
        assert not cache.access(0)       # line 0 was evicted
        assert cache.access(512)         # line 4 still resident

    def test_mru_promotion(self):
        cache = SetAssociativeCache(512, line_bytes=128, associativity=2)
        cache.access(0)
        cache.access(256)
        cache.access(0)       # promote line 0 to MRU
        cache.access(512)     # evicts line 2 (now LRU)
        assert cache.access(0)
        assert not cache.access(256)

    def test_flush_keeps_stats(self):
        cache = SetAssociativeCache(4096)
        cache.access(0)
        cache.access(0)
        cache.flush()
        assert cache.stats.hits == 1
        assert not cache.access(0)  # miss after flush

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(1000, line_bytes=128, associativity=8)

    def test_hit_ratio(self):
        cache = SetAssociativeCache(4096)
        cache.access(0)
        cache.access(0)
        cache.access(0)
        cache.access(0)
        assert cache.stats.hit_ratio == 0.75


def _export_by_scan(cache, lo, hi):
    """Every set walked in order: the reference ``export_lines``
    must agree with."""
    return tuple(
        address
        for index, ways in enumerate(cache._sets) for tag in ways
        for address in [(tag * cache.num_sets + index) * cache.line_bytes]
        if lo <= address < hi
    )


class _CountingSets(list):
    """A set table that records which sets are read."""

    def __init__(self, sets):
        super().__init__(sets)
        self.visited = []

    def __getitem__(self, index):
        self.visited.append(index)
        return super().__getitem__(index)


class TestExportLines:
    @given(accesses=st.lists(st.integers(0, 1 << 14), max_size=120),
           lo=st.integers(0, 1 << 14), span=st.integers(0, 1 << 13))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_full_scan(self, accesses, lo, span):
        cache = SetAssociativeCache(16 * 128 * 2, line_bytes=128,
                                    associativity=2)
        for address in accesses:
            cache.access(address)
        assert cache.export_lines(lo, lo + span) == \
            _export_by_scan(cache, lo, lo + span)

    @pytest.mark.parametrize("first_set,lines", [
        (100, 32),    # a 4 KiB partition
        (2040, 32),   # wraps past the last set
        (0, 4096),    # covers every set
    ])
    def test_visits_only_the_ranges_sets(self, first_set, lines):
        l2 = MemoryHierarchy.for_spec(QUADRO_RTX_A4000).l2
        lo = (7 * l2.num_sets + first_set) * l2.line_bytes
        hi = lo + lines * l2.line_bytes
        for address in range(lo - 4096, hi + 4096, 64):
            l2.access(address)
        l2._sets = _CountingSets(l2._sets)
        exported = l2.export_lines(lo, hi)
        assert exported == _export_by_scan(l2, lo, hi)
        assert len(exported) == min(lines, l2.num_sets * l2.associativity)
        assert len(l2._sets.visited) == min(lines, l2.num_sets)
        assert l2._sets.visited == sorted(l2._sets.visited)

    def test_an_empty_range_exports_nothing(self):
        cache = SetAssociativeCache(4096)
        cache.access(0)
        assert cache.export_lines(128, 128) == ()
        assert cache.export_lines(256, 0) == ()

    def test_flush_empties_every_set(self):
        cache = SetAssociativeCache(4096)
        for address in range(0, 1 << 14, 96):
            cache.access(address)
        cache.flush()
        assert not any(cache._sets)
        assert len(cache._sets) == cache.num_sets


class TestMemoryHierarchy:
    def test_l1_miss_falls_to_l2(self):
        hierarchy = MemoryHierarchy.for_spec(QUADRO_RTX_A4000)
        assert hierarchy.access(0) == "global"
        assert hierarchy.access(0) == "l1"

    def test_l2_survives_kernel_boundary(self):
        # The paper's Fig. 11 reasoning: L1 flushes per launch, L2
        # persists, which is why lenet's L2 hit ratio (72%) is far
        # above its L1 (37%).
        hierarchy = MemoryHierarchy.for_spec(QUADRO_RTX_A4000)
        hierarchy.access(0)
        hierarchy.new_kernel()
        assert hierarchy.access(0) == "l2"

    def test_level_counts(self):
        hierarchy = MemoryHierarchy.for_spec(QUADRO_RTX_A4000)
        hierarchy.access(0)
        hierarchy.access(0)
        hierarchy.access(1 << 20)
        assert hierarchy.level_counts["global"] == 2
        assert hierarchy.level_counts["l1"] == 1

    def test_reset_stats(self):
        hierarchy = MemoryHierarchy.for_spec(QUADRO_RTX_A4000)
        hierarchy.access(0)
        hierarchy.reset_stats()
        assert hierarchy.l1.stats.accesses == 0
        assert all(v == 0 for v in hierarchy.level_counts.values())

    def test_geometry_from_spec(self):
        hierarchy = MemoryHierarchy.for_spec(QUADRO_RTX_A4000)
        assert (hierarchy.l1.num_sets * hierarchy.l1.associativity
                * hierarchy.l1.line_bytes) == 128 * 1024
        assert (hierarchy.l2.num_sets * hierarchy.l2.associativity
                * hierarchy.l2.line_bytes) == 4096 * 1024
