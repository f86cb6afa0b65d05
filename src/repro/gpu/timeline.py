"""Discrete-event timing simulation of GPU work.

The executor (:mod:`repro.gpu.executor`) produces, for each kernel, its
total warp-cycle *work* and its parallelism *demand*. This module turns
streams of such tasks into a timeline:

- **Spatial sharing** (single context, the MPS/Guardian model): kernels
  from different streams run concurrently, sharing the SM pool under
  NVIDIA's *leftover* policy — earlier-arrived kernels take the
  capacity they demand, later kernels get what is left (the policy the
  paper states it uses, §5).
- **Time sharing** (one context per application, the native model):
  only one context's tasks run at a time; switching contexts costs
  ``context_switch_cycles`` (TLB invalidation + state swap, §7.1).

Host-to-device and device-to-host copies run on dedicated copy engines
(one per direction, FIFO), overlapping kernels — as real GPUs do.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from math import isfinite
from typing import Optional

_next_seq = itertools.count().__next__


class GpuTask:
    """One unit of device work (kernel or DMA copy).

    Slotted by hand (the package supports Python 3.9, which has no
    ``dataclass(slots=True)``): every submitted operation builds one.
    """

    __slots__ = ("kind", "context_id", "stream_key", "work_cycles",
                 "demand", "fixed_cycles", "tag", "label", "release", "seq")

    def __init__(self, kind: str, context_id: int, stream_key: tuple,
                 work_cycles: float, demand: int = 0,
                 fixed_cycles: float = 0.0, tag: str = "", label: str = "",
                 release: float = 0.0, seq: Optional[int] = None):
        self.kind = kind                  # "kernel" | "h2d" | "d2h" | "d2d"
        self.context_id = context_id
        self.stream_key = stream_key      # (context_id, stream_id)
        self.work_cycles = work_cycles    # SM work or transfer cycles
        self.demand = demand              # parallelism demand (kernels)
        self.fixed_cycles = fixed_cycles  # launch overhead, not shareable
        self.tag = tag                    # application id, per-app times
        self.label = label                # kernel name, for traces
        #: Earliest start (device cycles): when the submitting host/server
        #: finished processing the call. Models submission bubbles — a GPU
        #: fed too slowly by its launch path idles between kernels, which
        #: is exactly how interception overhead and the MPS-server
        #: bottleneck surface on real systems.
        self.release = release
        self.seq = _next_seq() if seq is None else seq

    def __repr__(self) -> str:
        return (f"GpuTask({self.kind!r}, seq={self.seq}, "
                f"stream_key={self.stream_key!r}, "
                f"work_cycles={self.work_cycles!r}, demand={self.demand!r}, "
                f"fixed_cycles={self.fixed_cycles!r}, "
                f"release={self.release!r})")


@dataclass
class TimelineResult:
    """Outcome of simulating a batch of tasks."""

    makespan_cycles: float
    completion_by_tag: dict[str, float]
    start_by_tag: dict[str, float]
    context_switches: int
    task_finish: dict[int, float]  # seq -> finish time
    #: seq -> admission time (when the task actually started running,
    #: after release and engine/stream gating). Same relative axis as
    #: ``task_finish``; consumed by the telemetry device track.
    task_start: dict[int, float] = field(default_factory=dict)


class _Running:
    __slots__ = ("task", "remaining", "rate", "slot")

    def __init__(self, task: GpuTask, remaining: float, rate: float,
                 slot: int):
        self.task = task
        self.remaining = remaining
        self.rate = rate
        self.slot = slot  # the task's stream, as an index into ``queues``


class Timeline:
    """Simulates one batch of stream-ordered tasks to completion."""

    def __init__(
        self,
        sm_capacity: int,
        context_switch_cycles: float = 0.0,
        spatial: bool = True,
    ):
        if sm_capacity < 1:
            raise ValueError(
                f"sm_capacity must be at least 1, got {sm_capacity!r}")
        self.sm_capacity = sm_capacity
        self.context_switch_cycles = context_switch_cycles
        self.spatial = spatial

    def run(self, tasks: list[GpuTask],
            start_cycles: float = 0.0) -> TimelineResult:
        """Simulate; tasks within a ``stream_key`` keep their list order.

        ``start_cycles`` is the device's global clock at the start of
        this batch: task releases are global host-clock instants, so
        consecutive batches must continue on the same axis. All
        reported times are relative to ``start_cycles`` (durations).

        A step touches only the streams whose state changed: an idle
        stream's head waits in ``future`` (a heap by release), then in
        ``due`` (stream slots in first-seen order), so admission, and
        every float operation, happen in the order of a full scan.
        """
        slots: dict[tuple, int] = {}
        queues: list[list[GpuTask]] = []
        for task in tasks:
            if not (isfinite(task.work_cycles) and isfinite(task.fixed_cycles)
                    and isfinite(task.release)):
                raise ValueError(
                    f"task seq {task.seq} ({task.kind}): work_cycles "
                    f"{task.work_cycles!r}, fixed_cycles "
                    f"{task.fixed_cycles!r} and release {task.release!r} "
                    f"must be finite")
            slot = slots.get(task.stream_key)
            if slot is None:
                slot = slots[task.stream_key] = len(queues)
                queues.append([])
            queues[slot].append(task)
        # Treat per-stream lists as FIFOs (pop from the front).
        for queue in queues:
            queue.reverse()

        spatial = self.spatial
        capacity = float(self.sm_capacity)
        future = [(queue[-1].release, slot)
                  for slot, queue in enumerate(queues)]
        heapify(future)
        due: list[int] = []
        clock = start_cycles
        running: list[_Running] = []
        kernels: list[_Running] = []  # the running kernels, by seq
        rates_stale = False
        engine_busy = [False, False]  # copy engines: h2d, then d2h
        finish: dict[int, float] = {}
        admitted: dict[int, float] = {}
        completion: dict[str, float] = {}
        start: dict[str, float] = {}
        active_context: Optional[int] = None
        switches = 0

        while future or due or running:
            if not spatial:
                live = {queue[-1].context_id for queue in queues if queue}
                live.update(entry.task.context_id for entry in running)
                if active_context not in live:
                    # Round-robin: next context after the current one.
                    if active_context is None:
                        active_context = min(live)
                    else:
                        clock += self.context_switch_cycles
                        switches += 1
                        later = [cid for cid in live if cid > active_context]
                        active_context = min(later or live)

            # -- admit new tasks -------------------------------------------
            threshold = clock + 1e-9
            while future and future[0][0] <= threshold:
                insort(due, heappop(future)[1])
            if due:
                waiting = []
                for slot in due:
                    queue = queues[slot]
                    head = queue[-1]
                    if not spatial and head.context_id != active_context:
                        waiting.append(slot)
                        continue
                    kind = head.kind
                    if kind == "kernel":
                        # Kernel work is measured in warp-cycles and
                        # drains at the granted warp count per cycle;
                        # fold the fixed (non-shareable) launch cost
                        # into work units so running alone costs
                        # work/demand + fixed.
                        entry = _Running(head, head.work_cycles + (
                            head.fixed_cycles * max(head.demand, 1)
                        ), 0.0, slot)
                        kernels.append(entry)
                        rates_stale = True
                    else:
                        engine = kind != "h2d"  # 0: h2d, 1: d2h and d2d
                        if engine_busy[engine]:
                            waiting.append(slot)
                            continue
                        engine_busy[engine] = True
                        entry = _Running(
                            head, head.work_cycles + head.fixed_cycles,
                            1.0, slot)  # dedicated copy engine
                    queue.pop()
                    running.append(entry)
                    admitted[head.seq] = clock
                    if head.tag and head.tag not in start:
                        start[head.tag] = clock
                due = waiting

            if spatial:
                blocked_release = future[0][0] if future else None
            else:
                blocked_release = min(
                    (release for release, slot in future
                     if queues[slot][-1].context_id == active_context),
                    default=None)
            if not running:
                if blocked_release is not None:
                    # Everything pending waits on its submitter; the
                    # GPU idles until the next release.
                    clock = blocked_release
                continue  # a context switch may also unblock work

            # -- allocate rates (leftover policy, in arrival order) --------
            if rates_stale:
                kernels.sort(key=lambda entry: entry.task.seq)
                leftover = capacity
                for entry in kernels:
                    # Work drains at the granted warp count per cycle
                    # (work is measured in warp-cycles).
                    granted = min(max(entry.task.demand, 1), leftover)
                    leftover -= granted
                    entry.rate = granted
                rates_stale = False

            # -- advance to the next completion or release ------------------
            # ``min`` by hand: the first of equal candidates wins, as
            # with the builtin.
            dt = None
            for entry in running:
                if entry.rate > 0:
                    step = entry.remaining / entry.rate
                    if dt is None or step < dt:
                        dt = step
            if blocked_release is not None:
                step = blocked_release - clock
                if step < dt:
                    dt = step
            clock += dt
            survivors: list[_Running] = []
            for entry in running:
                entry.remaining -= entry.rate * dt
                if entry.remaining <= 1e-9:
                    task = entry.task
                    finish[task.seq] = clock
                    if task.tag:
                        completion[task.tag] = clock
                    if task.kind == "kernel":
                        kernels.remove(entry)
                        rates_stale = True
                    else:
                        engine_busy[task.kind != "h2d"] = False
                    queue = queues[entry.slot]
                    if queue:
                        heappush(future, (queue[-1].release, entry.slot))
                else:
                    survivors.append(entry)
            running = survivors

        return TimelineResult(
            makespan_cycles=clock - start_cycles,
            completion_by_tag={
                tag: at - start_cycles for tag, at in completion.items()
            },
            start_by_tag={
                tag: at - start_cycles for tag, at in start.items()
            },
            context_switches=switches,
            task_finish={
                seq: at - start_cycles for seq, at in finish.items()
            },
            task_start={
                seq: at - start_cycles for seq, at in admitted.items()
            },
        )
