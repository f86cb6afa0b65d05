"""Profiling — the simulator's Nsight.

The paper uses Nsight for cache hit ratios / kernel latencies and
``rdtsc`` for host call costs. The simulator exposes the same numbers
natively; :class:`Profiler` packages them per kernel launch and in
aggregate (Fig. 11's inputs: per-kernel overhead vs cache hit ratio).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.device import Device
from repro.gpu.executor import LaunchResult


@dataclass
class KernelProfile:
    """Aggregated metrics of one kernel symbol."""

    name: str
    launches: int = 0
    total_cycles: float = 0.0
    total_instructions: int = 0
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    global_accesses: int = 0

    @property
    def mean_cycles(self) -> float:
        return self.total_cycles / max(self.launches, 1)

    @property
    def l1_hit_ratio(self) -> float:
        total = self.l1_hits + self.l2_hits + self.global_accesses
        return self.l1_hits / total if total else 0.0

    @property
    def l2_hit_ratio(self) -> float:
        """L2 ratio over accesses that missed L1 (the paper's metric)."""
        below_l1 = self.l2_hits + self.global_accesses
        return self.l2_hits / below_l1 if below_l1 else 0.0

    def absorb(self, result: LaunchResult) -> None:
        self.launches += 1
        self.total_cycles += result.duration_cycles
        self.total_instructions += result.instructions
        self.loads += result.loads
        self.stores += result.stores
        self.l1_hits += result.level_counts.get("l1", 0)
        self.l2_hits += result.level_counts.get("l2", 0)
        self.global_accesses += result.level_counts.get("global", 0)


class Profiler:
    """Collects per-kernel profiles from a device.

    Usage::

        profiler = Profiler(device)   # turns on launch-result capture
        ... run workload ...
        profiles = profiler.collect()
    """

    def __init__(self, device: Device):
        self.device = device
        device._keep_launch_results = True
        self._consumed = 0

    def collect(self) -> dict[str, KernelProfile]:
        """Aggregate every launch since the last collect()."""
        profiles: dict[str, KernelProfile] = {}
        results = self.device.metrics.launch_results
        for result in results[self._consumed:]:
            profile = profiles.get(result.kernel_name)
            if profile is None:
                profile = KernelProfile(name=result.kernel_name)
                profiles[result.kernel_name] = profile
            profile.absorb(result)
        self._consumed = len(results)
        return profiles

    @staticmethod
    def overall(profiles: dict[str, KernelProfile]) -> KernelProfile:
        """Fold every kernel's profile into one aggregate row."""
        total = KernelProfile(name="<all>")
        for profile in profiles.values():
            total.launches += profile.launches
            total.total_cycles += profile.total_cycles
            total.total_instructions += profile.total_instructions
            total.loads += profile.loads
            total.stores += profile.stores
            total.l1_hits += profile.l1_hits
            total.l2_hits += profile.l2_hits
            total.global_accesses += profile.global_accesses
        return total
