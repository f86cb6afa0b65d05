"""``Timeline.run`` against a frozen copy of the scan it replaced.

The event-heap ``run`` must change bookkeeping only: the same float
operations on the clock and on every task's remaining work, in the same
order, and admission in first-seen stream order. So every field of the
result is compared with ``==`` and every dict as a list of items, which
pins insertion order too.
"""

import dataclasses
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.timeline import GpuTask, Timeline, TimelineResult

# -- the reference: the per-step scan of every stream, kept verbatim ---------


def _resource(task: GpuTask) -> str:
    if task.kind == "kernel":
        return "sm"
    if task.kind == "h2d":
        return "h2d"
    # d2h and d2d share the device-to-host engine slot in this model
    return "d2h"


@dataclasses.dataclass
class _Running:
    task: GpuTask
    remaining: float
    rate: float = 0.0


def _context_busy(context_id: int, queues: dict, running: list) -> bool:
    if any(r.task.context_id == context_id for r in running):
        return True
    return any(
        queue and queue[-1].context_id == context_id
        for queue in queues.values()
    )


def _engine_busy(resource: str, running: list) -> bool:
    return any(_resource(r.task) == resource for r in running)


def reference_run(timeline: Timeline, tasks: list,
                  start_cycles: float = 0.0) -> TimelineResult:
    queues: dict[tuple, list[GpuTask]] = {}
    for task in tasks:
        queues.setdefault(task.stream_key, []).append(task)
    for queue in queues.values():
        queue.reverse()

    clock = start_cycles
    running: list[_Running] = []
    finish: dict[int, float] = {}
    admitted: dict[int, float] = {}
    completion: dict[str, float] = {}
    start: dict[str, float] = {}
    active_context: Optional[int] = None
    switches = 0

    def pending_contexts() -> list[int]:
        ids = {queue[-1].context_id for queue in queues.values() if queue}
        ids.update(r.task.context_id for r in running)
        return sorted(ids)

    while any(queues.values()) or running:
        if not timeline.spatial:
            if active_context is None or (
                not _context_busy(active_context, queues, running)
            ):
                candidates = pending_contexts()
                if candidates:
                    if active_context in candidates:
                        next_context = active_context
                    else:
                        later = [
                            cid for cid in candidates
                            if active_context is not None
                            and cid > active_context
                        ]
                        next_context = (
                            later[0] if later else candidates[0]
                        )
                    if (
                        active_context is not None
                        and next_context != active_context
                    ):
                        clock += timeline.context_switch_cycles
                        switches += 1
                    active_context = next_context

        started = True
        blocked_release = None
        while started:
            started = False
            blocked_release = None
            busy_streams = {r.task.stream_key for r in running}
            for stream_key, queue in queues.items():
                if not queue or stream_key in busy_streams:
                    continue
                head = queue[-1]
                if not timeline.spatial and head.context_id != active_context:
                    continue
                if head.release > clock + 1e-9:
                    if (blocked_release is None
                            or head.release < blocked_release):
                        blocked_release = head.release
                    continue
                if _resource(head) != "sm" and _engine_busy(
                    _resource(head), running
                ):
                    continue
                queue.pop()
                if _resource(head) == "sm":
                    remaining = head.work_cycles + (
                        head.fixed_cycles * max(head.demand, 1)
                    )
                else:
                    remaining = head.work_cycles + head.fixed_cycles
                running.append(_Running(task=head, remaining=remaining))
                admitted[head.seq] = clock
                if head.tag and head.tag not in start:
                    start[head.tag] = clock
                started = True

        if not running:
            if blocked_release is not None:
                clock = blocked_release
            continue

        leftover = float(timeline.sm_capacity)
        for entry in sorted(running, key=lambda r: r.task.seq):
            task = entry.task
            if _resource(task) == "sm":
                demand = max(task.demand, 1)
                granted = min(demand, leftover)
                leftover -= granted
                entry.rate = granted
            else:
                entry.rate = 1.0

        dt = min(
            entry.remaining / entry.rate
            for entry in running
            if entry.rate > 0
        )
        if blocked_release is not None:
            dt = min(dt, blocked_release - clock)
        clock += dt
        survivors: list[_Running] = []
        for entry in running:
            entry.remaining -= entry.rate * dt
            if entry.remaining <= 1e-9:
                finish[entry.task.seq] = clock
                if entry.task.tag:
                    completion[entry.task.tag] = clock
            else:
                survivors.append(entry)
        running = survivors

    return TimelineResult(
        makespan_cycles=clock - start_cycles,
        completion_by_tag={
            tag: at - start_cycles for tag, at in completion.items()
        },
        start_by_tag={tag: at - start_cycles for tag, at in start.items()},
        context_switches=switches,
        task_finish={seq: at - start_cycles for seq, at in finish.items()},
        task_start={seq: at - start_cycles for seq, at in admitted.items()},
    )


# -- random batches -----------------------------------------------------------

CAPACITIES = (1, 48, 2048)

#: One task as ``(context, stream, kind, work, demand index, fixed,
#: tag index, release offset)``; the demand is picked per capacity.
_TASKS = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["kernel", "kernel", "h2d", "d2h", "d2d"]),
    st.one_of(st.sampled_from([0.0, 1e-10, 1.0, 64.0, 1000.0]),
              st.floats(min_value=0.0, max_value=5e4)),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([0.0, 4.0, 500.0]),
    st.integers(min_value=0, max_value=2),
    st.one_of(st.sampled_from([-500.0, 0.0, 0.0, 5e-10, 100.0, 250.5]),
              st.floats(min_value=0.0, max_value=2e4)),
)


@st.composite
def batches(draw):
    """``(capacity, switch cycles, start, tasks)``: 0-40 tasks over 1-4
    contexts x 1-3 streams, kernels and all three copy kinds, zero work,
    demand 0 or above capacity, equal and staggered releases, and seq
    numbers shuffled against list order."""
    capacity = draw(st.sampled_from(CAPACITIES))
    start = draw(st.sampled_from([0.0, 1000.0, 123456.789]))
    switch = draw(st.sampled_from([0.0, 1000.0]))
    count = draw(st.integers(min_value=0, max_value=40))
    drawn = draw(st.lists(_TASKS, min_size=count, max_size=count))
    seqs = draw(st.permutations(range(len(drawn))))
    demands = [0, 1, 7, capacity - 1, capacity, capacity + 1, 3 * capacity]
    tasks = [
        GpuTask(
            kind=kind,
            context_id=context,
            stream_key=(context, stream),
            work_cycles=work,
            demand=demands[demand] if kind == "kernel" else 0,
            fixed_cycles=fixed,
            tag=("", f"app{context}", "shared")[tag],
            release=start + offset,
            seq=1000 + seq,
        )
        for (context, stream, kind, work, demand, fixed, tag, offset), seq
        in zip(drawn, seqs)
    ]
    return capacity, switch, start, tasks


def assert_identical(new: TimelineResult, old: TimelineResult) -> None:
    for item in dataclasses.fields(TimelineResult):
        got = getattr(new, item.name)
        want = getattr(old, item.name)
        if isinstance(want, dict):
            assert list(got.items()) == list(want.items()), item.name
        else:
            assert got == want, item.name


class TestAgainstTheScan:
    @pytest.mark.parametrize("spatial", [True, False],
                             ids=["spatial", "time-sliced"])
    @given(batch=batches())
    @settings(max_examples=100, deadline=None)
    def test_every_field_identical(self, spatial, batch):
        capacity, switch, start, tasks = batch
        timeline = Timeline(capacity, switch, spatial=spatial)
        assert_identical(timeline.run(tasks, start_cycles=start),
                         reference_run(timeline, tasks, start_cycles=start))

    @pytest.mark.parametrize("spatial", [True, False],
                             ids=["spatial", "time-sliced"])
    def test_copy_engine_goes_to_the_first_seen_stream(self, spatial):
        """Three streams' d2h/d2d heads fall due together while the
        engine is busy: the engine passes to them in first-seen stream
        order, not in release or seq order."""
        busy = GpuTask("d2h", 1, (1, 9), 100.0, seq=50)
        waiting = [
            GpuTask("d2d", 1, (1, 3), 10.0, release=60.0, seq=53),
            GpuTask("d2h", 1, (1, 1), 10.0, release=40.0, seq=51),
            GpuTask("d2h", 1, (1, 2), 10.0, release=20.0, seq=52),
        ]
        timeline = Timeline(48, spatial=spatial)
        tasks = [busy, *waiting]
        result = timeline.run(tasks)
        assert_identical(result, reference_run(timeline, tasks))
        assert list(result.task_start) == [50, 53, 51, 52]
