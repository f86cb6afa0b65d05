"""Timing, output checks and counter collection shared by the workloads.

One :class:`Harness` lives for one workload subprocess. It owns the two
host clocks (``perf_counter_ns`` wall, ``process_time_ns`` CPU), the
failed/attempted tally, the sha256 over every byte read back, and the
hand-off to the tracer (which only accumulates inside timed rounds).
"""

from __future__ import annotations

import hashlib
import time


class SimTally:
    """Simulated-instruction and L1 totals drained off
    ``device.metrics.launch_results`` between rounds, so the list (kept
    by ``keep_launch_results=True``) never grows with run length."""

    def __init__(self):
        self.instructions = 0
        self.kernels = 0
        self.l1_hits = 0
        self.accesses = 0

    def drain(self, device) -> int:
        results = device.metrics.launch_results
        instructions = 0
        for result in results:
            instructions += result.instructions
            levels = result.level_counts
            self.l1_hits += levels["l1"]
            self.accesses += levels["l1"] + levels["l2"] + levels["global"]
        self.kernels += len(results)
        self.instructions += instructions
        results.clear()
        return instructions


class SetupOnly(Exception):
    """Raised at the first timed call of a ``--setup-only`` worker."""


class Harness:
    #: How many failure messages a result carries (the count is exact).
    MAX_MESSAGES = 10

    def __init__(self, spawned_ns: int, tracer=None, setup_only: bool = False):
        self.spawned_ns = spawned_ns
        self.tracer = tracer
        self.setup_only = setup_only
        self.setup_ns = 0
        self.round_ns: list[int] = []
        self.round_calls: list[int] = []
        self.cpu_ns = 0
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.sha = hashlib.sha256()
        self.sim = SimTally()

    # -- output checks (always outside timed sections) ----------------------

    def count(self, operations: int) -> None:
        """Operations that were attempted and did not fail."""
        self.attempted += operations

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < self.MAX_MESSAGES:
                self.messages.append(message)
        return ok

    def digest(self, data: bytes) -> None:
        self.sha.update(data)

    # -- the host clocks ----------------------------------------------------

    def start_timing(self) -> None:
        """End of set-up: everything before this instant is ``setup_s``."""
        self.setup_ns = time.perf_counter_ns() - self.spawned_ns
        if self.setup_only:
            raise SetupOnly
        # Simulated work is counted over the timed rounds only.
        self.sim = SimTally()

    def timed(self, body, index: int) -> None:
        """Run one round under both clocks; ``body`` returns its calls."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_timed()
        cpu0 = time.process_time_ns()
        wall0 = time.perf_counter_ns()
        calls = body(index)
        wall1 = time.perf_counter_ns()
        cpu1 = time.process_time_ns()
        if tracer is not None:
            tracer.end_timed(wall0, wall1)
        self.round_ns.append(wall1 - wall0)
        self.round_calls.append(calls)
        self.cpu_ns += cpu1 - cpu0


def drive(harness: Harness, workload, rounds: int, warm: int) -> None:
    """Warm-up rounds (set-up), then the timed rounds."""
    for index in range(warm + rounds):
        if index == warm:
            harness.start_timing()
        workload.prepare(index)
        if index < warm:
            workload.round(index)
        else:
            harness.timed(workload.round, index)
        workload.verify(index)


class CounterTally:
    """The program's public counters, summed over the servers, devices
    and channels one workload used (one of each except ``mix_train``,
    which replays on fresh devices, and ``session_churn``, whose
    channels close as tenants depart)."""

    IPC_FIELDS = ("messages", "client_cycles", "batches",
                  "batched_messages", "marshal_cached_calls")
    SERVER_FIELDS = (
        "cycles", "transfers_checked", "transfers_rejected",
        "fastpath_hits", "fastpath_misses", "trace_eligible_ops",
        "trace_replay_ops", "traces_compiled", "trace_guard_failures",
        "patch_cache_hits", "patch_cache_misses", "partitions_shrunk",
        "tenants_compacted", "swaps_out", "swaps_in",
    )

    def __init__(self):
        self.values: dict[str, float] = {}
        self.fragmentation_score = 1.0

    def add(self, name: str, amount: float) -> None:
        self.values[name] = self.values.get(name, 0) + amount

    def add_channel(self, stats) -> None:
        for name in self.IPC_FIELDS:
            self.add(f"ipc.{name}", getattr(stats, name))

    def add_server(self, server) -> None:
        for name in self.SERVER_FIELDS:
            self.add(f"server.{name}", getattr(server.stats, name))
        self.add("bounds.epoch_bumps",
                  sum(server.allocator.bounds.epochs().values()))
        self.add("driver.modules_loaded", server.driver.stats.modules_loaded)
        self.fragmentation_score = server.allocator.fragmentation_score()
        if server.telemetry is not None:
            tracer = server.telemetry.tracer
            self.add("telemetry.spans_emitted", tracer.spans_finished)
            self.add("telemetry.spans_dropped", tracer.spans_dropped)

    def add_device(self, device) -> None:
        self.add("device.clock_cycles", device.clock_cycles)
        self.add("device.kernels_launched", device.metrics.kernels_launched)

    def get(self, name: str) -> float:
        return self.values.get(name, 0)
