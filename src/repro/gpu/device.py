"""The simulated GPU device.

Ties together the memory system, the PTX executor and the timeline
scheduler behind the operations the driver API needs:

- context and stream management,
- memory allocation (native first-fit — the baseline allocator whose
  arbitrary addresses make co-tenancy unsafe),
- DMA copies,
- kernel launches.

Simulation model: *functional effects are applied at submission time*
(memory contents update immediately, in submission order), while
*timing* is resolved lazily — submitted tasks accumulate and
:meth:`Device.synchronize` runs the discrete-event timeline over them.
This functional/timing split is sound here because tasks in one stream
are submitted in order, and concurrent tenants touch disjoint memory
(the very property Guardian enforces; the unprotected-corruption demos
use explicit single-stream ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gpu.allocator import FirstFitAllocator
from repro.gpu.cache import MemoryHierarchy
from repro.gpu.context import Context
from repro.gpu.executor import (
    CompiledKernel,
    KernelExecutor,
    LaunchResult,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import DeviceSpec
from repro.gpu.stream import Stream
from repro.gpu.timeline import GpuTask, Timeline, TimelineResult
from repro.gpu.executor import EFFECTIVE_WARPS_PER_SM, LAUNCH_OVERHEAD_CYCLES

#: Attr names of a device span's ring row (DESIGN.md §11).
_DEVICE_ATTRS = ("kind", "demand", "release")


@dataclass
class DeviceMetrics:
    """Cumulative counters across the device's lifetime."""

    kernels_launched: int = 0
    h2d_copies: int = 0
    d2h_copies: int = 0
    d2d_copies: int = 0
    bytes_h2d: int = 0
    bytes_d2h: int = 0
    total_cycles: float = 0.0
    context_switches: int = 0
    launch_results: list[LaunchResult] = field(default_factory=list)


class Device:
    """One simulated GPU."""

    def __init__(self, spec: DeviceSpec, keep_launch_results: bool = False):
        self.spec = spec
        self.memory = GlobalMemory(spec.global_memory_bytes)
        self.hierarchy = MemoryHierarchy.for_spec(spec)
        self.executor = KernelExecutor(spec, self.memory, self.hierarchy)
        self.allocator = FirstFitAllocator(
            self.memory.base, spec.global_memory_bytes
        )
        self.contexts: dict[int, Context] = {}
        self.metrics = DeviceMetrics()
        self.clock_cycles = 0.0
        #: Set by the GuardianServer when its telemetry knob is on:
        #: each synchronize then emits device-track spans for the
        #: tasks the timeline just resolved. None = stock device.
        self.telemetry = None
        self._pending: list[GpuTask] = []
        #: Unresolved tasks per stream key (what ``stream_pending``
        #: answers): counted at submit, cleared with ``_pending``.
        self._pending_by_stream: dict = {}
        self._keep_launch_results = keep_launch_results
        #: Sampling knob for large grids (None = execute every block).
        self.max_blocks_per_launch: Optional[int] = None

    # -- contexts -------------------------------------------------------------

    @property
    def sm_capacity(self) -> int:
        return self.spec.num_sms * EFFECTIVE_WARPS_PER_SM

    def create_context(self, name: str) -> Context:
        context = Context(name=name)
        self.contexts[context.context_id] = context
        return context

    def destroy_context(self, context: Context) -> None:
        for address in list(context.allocations):
            self.allocator.free(address)
        context.allocations.clear()
        self.contexts.pop(context.context_id, None)

    # -- memory ----------------------------------------------------------------

    def allocate(self, context: Context, size: int) -> int:
        address = self.allocator.allocate(size)
        context.allocations.add(address)
        return address

    def free(self, context: Context, address: int) -> None:
        self.allocator.free(address)
        context.allocations.discard(address)

    # -- task submission --------------------------------------------------------

    def submit_kernel(
        self,
        stream: Stream,
        compiled: CompiledKernel,
        grid: tuple[int, int, int],
        block: tuple[int, int, int],
        params: list,
        tag: str = "",
        release_cycles: float = 0.0,
    ) -> LaunchResult:
        """Execute a kernel functionally and queue its timing task.

        ``release_cycles`` is the device-clock time at which the
        submitting host finished issuing the launch (see
        :class:`repro.gpu.timeline.GpuTask`).
        """
        result = self.executor.launch(
            compiled, grid, block, params,
            max_blocks=self.max_blocks_per_launch,
        )
        self._note_pending(stream, release_cycles)
        self.metrics.kernels_launched += 1
        if self._keep_launch_results:
            self.metrics.launch_results.append(result)
        self._pending.append(
            GpuTask(
                kind="kernel",
                context_id=stream.context_id,
                stream_key=stream.key,
                work_cycles=result.total_warp_cycles,
                demand=min(result.warps, self.sm_capacity),
                fixed_cycles=LAUNCH_OVERHEAD_CYCLES,
                tag=tag,
                label=compiled.name,
                release=release_cycles,
            )
        )
        return result

    def submit_h2d(self, stream: Stream, dst: int, data: bytes,
                   tag: str = "", release_cycles: float = 0.0) -> None:
        self.memory.write(dst, data)
        self.metrics.h2d_copies += 1
        self.metrics.bytes_h2d += len(data)
        self._pending.append(self._copy_task(
            "h2d", stream, len(data), self.spec.pcie_bw_gbps, tag,
            release_cycles,
        ))

    def submit_d2h(self, stream: Stream, src: int, size: int,
                   tag: str = "", release_cycles: float = 0.0) -> bytes:
        data = self.memory.read(src, size)
        self.metrics.d2h_copies += 1
        self.metrics.bytes_d2h += size
        self._pending.append(self._copy_task(
            "d2h", stream, size, self.spec.pcie_bw_gbps, tag,
            release_cycles,
        ))
        return data

    def submit_d2d(self, stream: Stream, dst: int, src: int, size: int,
                   tag: str = "", release_cycles: float = 0.0) -> None:
        self.memory.write(dst, self.memory.read(src, size))
        self.metrics.d2d_copies += 1
        self._pending.append(self._copy_task(
            "d2d", stream, size, self.spec.global_bw_gbps, tag,
            release_cycles,
        ))

    def submit_memset(self, stream: Stream, dst: int, value: int, size: int,
                      tag: str = "", release_cycles: float = 0.0) -> None:
        self.memory.fill(dst, size, value)
        self.metrics.d2d_copies += 1
        self._pending.append(self._copy_task(
            "d2d", stream, size, self.spec.global_bw_gbps, tag,
            release_cycles,
        ))

    def _note_pending(self, stream: Stream, release_cycles: float) -> None:
        """Every submit path passes here once, before it queues its
        task on ``_pending``."""
        stream.note_submit(release_cycles)
        counts = self._pending_by_stream
        counts[stream.key] = counts.get(stream.key, 0) + 1

    def _copy_task(self, kind: str, stream: Stream, size: int,
                   bw_gbps: float, tag: str,
                   release_cycles: float = 0.0) -> GpuTask:
        self._note_pending(stream, release_cycles)
        cycles = size * self.spec.clock_ghz / bw_gbps
        return GpuTask(
            kind=kind,
            context_id=stream.context_id,
            stream_key=stream.key,
            work_cycles=cycles,
            tag=tag,
            release=release_cycles,
        )

    # -- synchronisation ---------------------------------------------------------

    def synchronize(self, spatial: bool = True) -> TimelineResult:
        """Resolve all pending tasks' timing and advance the clock.

        ``spatial=True`` models a single shared context (MPS/Guardian);
        ``spatial=False`` models per-application contexts that
        time-share the GPU with context-switch costs (native CUDA).
        """
        timeline = Timeline(
            sm_capacity=self.sm_capacity,
            context_switch_cycles=self.spec.context_switch_cycles,
            spatial=spatial,
        )
        # Continue on the device's global clock: releases are global
        # host-clock instants, so back-to-back batches share one axis.
        base = self.clock_cycles
        resolved = self._pending
        result = timeline.run(resolved, start_cycles=base)
        self._pending = []
        self._pending_by_stream = {}
        self.clock_cycles += result.makespan_cycles
        self.metrics.total_cycles += result.makespan_cycles
        self.metrics.context_switches += result.context_switches
        if self.telemetry is not None and resolved:
            self._emit_device_spans(base, resolved, result)
        return result

    def _emit_device_spans(self, base: float, tasks: list[GpuTask],
                           result: TimelineResult) -> None:
        """Retrospective device-track spans on the global device axis.

        Emitted after the timeline pass (telemetry observes, never
        charges): one span per resolved task, from its admission to
        its finish instant, on the ``gpu`` track under the owning
        tenant's thread.
        """
        finishes = result.task_finish
        starts = result.task_start
        self.telemetry.tracer.emit_all("device", "gpu", [
            (task.label or task.kind, task.tag,
             base + starts.get(task.seq, 0.0), base + finishes[task.seq],
             None, task.kind, task.demand, task.release)
            for task in tasks if task.seq in finishes
        ], keys=_DEVICE_ATTRS)

    @property
    def pending_tasks(self) -> int:
        return len(self._pending)

    def stream_pending(self, stream: Stream) -> int:
        """Tasks submitted on ``stream`` whose timing is unresolved.

        This is what a stream synchronise "waits on" in the deferred
        timing model: the functional effects already happened at
        submission, and the wait itself is resolved by the next
        :meth:`synchronize` timeline pass.
        """
        return self._pending_by_stream.get(stream.key, 0)

    def elapsed_seconds(self) -> float:
        return self.spec.cycles_to_seconds(self.clock_cycles)
