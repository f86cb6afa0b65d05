"""Set-associative cache simulation (tags only).

The simulator keeps cache *tags* but not data — data always lives in
:class:`repro.gpu.memory.GlobalMemory` — because the caches only exist
to resolve access latencies and hit ratios. This is sufficient for the
paper's Fig. 11 experiment, which relates fencing overhead to the cache
hit ratio of ML kernels (measured L1 ~37%, L2 ~72% for lenet).

The hierarchy is two-level: a per-SM L1 (the executor flushes it
between kernel launches, since each launch generally lands on fresh
data) and a device-wide L2 that persists across launches.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0


class SetAssociativeCache:
    """A tag-only set-associative cache with LRU replacement."""

    def __init__(self, size_bytes: int, line_bytes: int = 128,
                 associativity: int = 8):
        if size_bytes % (line_bytes * associativity):
            raise ValueError("cache size must be a multiple of way size")
        self.line_bytes = line_bytes
        self.associativity = associativity
        self.num_sets = size_bytes // (line_bytes * associativity)
        # Each set is a list of tags ordered most-recently-used first.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]
        self.stats = CacheStats()

    def access(self, address: int) -> bool:
        """Touch the line holding ``address``; return True on a hit."""
        line = address // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        ways = self._sets[index]
        try:
            position = ways.index(tag)
        except ValueError:
            self.stats.misses += 1
            ways.insert(0, tag)
            if len(ways) > self.associativity:
                ways.pop()
            return False
        ways.insert(0, ways.pop(position))
        self.stats.hits += 1
        return True

    def flush(self) -> None:
        """Invalidate every line (keeps statistics)."""
        for ways in filter(None, self._sets):
            ways.clear()

    def export_lines(self, lo: int, hi: int) -> tuple[int, ...]:
        """Resident line addresses within ``[lo, hi)``, ordered by
        (set, recency) with the most recently used first — the shape
        :meth:`install_lines` reproduces exactly. Only the sets the
        range's lines map to are visited."""
        num_sets, line_bytes, sets = self.num_sets, self.line_bytes, self._sets
        # Lines whose first byte lies in [lo, hi).
        first, end = -(-lo // line_bytes), -(-hi // line_bytes)
        if end - first >= num_sets:
            indices = range(num_sets)
        else:
            start = first % num_sets
            stop = start + max(end - first, 0)
            indices = range(start, stop)
            if stop > num_sets:  # the range wraps past the last set
                indices = [*range(stop - num_sets), *range(start, num_sets)]
        return tuple([
            line * line_bytes
            for index in indices for tag in sets[index]  # MRU-first
            for line in [tag * num_sets + index] if first <= line < end
        ])

    def install_lines(self, lines: tuple[int, ...]) -> None:
        """Install lines without touching statistics (models a DMA
        landing in cache). ``lines`` is MRU-first per set, as
        :meth:`export_lines` produces; existing lines are pushed
        toward eviction."""
        for address in reversed(lines):
            line = address // self.line_bytes
            index = line % self.num_sets
            tag = line // self.num_sets
            ways = self._sets[index]
            if tag in ways:
                ways.remove(tag)
            ways.insert(0, tag)
            if len(ways) > self.associativity:
                ways.pop()


@dataclass
class MemoryHierarchy:
    """L1 + L2 pair resolving each access to a latency level.

    The executor calls :meth:`access` for every global-space load and
    store; the returned level (``"l1"``/``"l2"``/``"global"``) is
    priced by :class:`repro.gpu.latency.CostModel`.
    """

    l1: SetAssociativeCache
    l2: SetAssociativeCache
    #: Aggregate level counters for profiling (Fig. 11).
    level_counts: dict[str, int] = field(
        default_factory=lambda: {"l1": 0, "l2": 0, "global": 0}
    )

    @classmethod
    def for_spec(cls, spec) -> "MemoryHierarchy":
        return cls(
            l1=SetAssociativeCache(
                spec.l1_kb * 1024, spec.cache_line_bytes, associativity=8
            ),
            l2=SetAssociativeCache(
                spec.l2_kb * 1024, spec.cache_line_bytes, associativity=16
            ),
        )

    def access(self, address: int) -> str:
        """Resolve one access; returns the satisfying level."""
        if self.l1.access(address):
            self.level_counts["l1"] += 1
            return "l1"
        if self.l2.access(address):
            self.level_counts["l2"] += 1
            return "l2"
        self.level_counts["global"] += 1
        return "global"

    def new_kernel(self) -> None:
        """Called at each kernel launch boundary: L1 does not survive
        (new blocks land on arbitrary SMs), L2 persists."""
        self.l1.flush()

    def reset_stats(self) -> None:
        self.l1.stats.reset()
        self.l2.stats.reset()
        for key in self.level_counts:
            self.level_counts[key] = 0
