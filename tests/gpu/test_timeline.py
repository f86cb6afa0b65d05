"""Timeline scheduler tests: leftover policy, time sharing, releases."""

import math
import time

import pytest

from repro.gpu.timeline import GpuTask, Timeline


def kernel_task(context=1, stream=1, work=1000.0, demand=10, tag="",
                release=0.0):
    return GpuTask(
        kind="kernel", context_id=context, stream_key=(context, stream),
        work_cycles=work, demand=demand, tag=tag, release=release,
    )


def copy_task(kind="h2d", context=1, stream=1, work=500.0, tag=""):
    return GpuTask(kind=kind, context_id=context,
                   stream_key=(context, stream), work_cycles=work,
                   tag=tag)


class TestSpatialSharing:
    def test_single_task_duration(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        result = timeline.run([kernel_task(work=1000, demand=10)])
        assert result.makespan_cycles == pytest.approx(100.0)

    def test_same_stream_serialises(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        tasks = [kernel_task(stream=1, work=1000, demand=10)
                 for _ in range(3)]
        result = timeline.run(tasks)
        assert result.makespan_cycles == pytest.approx(300.0)

    def test_different_streams_overlap(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        tasks = [kernel_task(stream=s, work=1000, demand=10)
                 for s in (1, 2, 3)]
        result = timeline.run(tasks)
        assert result.makespan_cycles == pytest.approx(100.0)

    def test_leftover_policy_starves_late_arrival(self):
        """First kernel takes all capacity; the second gets nothing
        until it finishes — NVIDIA's leftover policy."""
        timeline = Timeline(sm_capacity=100, spatial=True)
        hog = kernel_task(stream=1, work=10_000, demand=100)
        late = kernel_task(stream=2, work=1_000, demand=50)
        result = timeline.run([hog, late])
        assert result.task_finish[hog.seq] == pytest.approx(100.0)
        # late runs only after the hog: 100 + 1000/50.
        assert result.task_finish[late.seq] == pytest.approx(120.0)

    def test_partial_leftover_share(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        first = kernel_task(stream=1, work=6_000, demand=60)
        second = kernel_task(stream=2, work=6_000, demand=60)
        result = timeline.run([first, second])
        # First gets 60, second the leftover 40 until first finishes.
        assert result.task_finish[first.seq] == pytest.approx(100.0)
        assert result.task_finish[second.seq] > 100.0

    def test_copies_overlap_kernels(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        result = timeline.run([
            kernel_task(stream=1, work=1000, demand=10),
            copy_task(stream=2, work=1000),
        ])
        assert result.makespan_cycles == pytest.approx(1000.0)

    def test_copy_engine_serialises_per_direction(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        result = timeline.run([
            copy_task(stream=1, work=1000),
            copy_task(stream=2, work=1000),
        ])
        assert result.makespan_cycles == pytest.approx(2000.0)

    def test_opposite_directions_overlap(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        result = timeline.run([
            copy_task("h2d", stream=1, work=1000),
            copy_task("d2h", stream=2, work=1000),
        ])
        assert result.makespan_cycles == pytest.approx(1000.0)


class TestTimeSharing:
    def test_contexts_serialise(self):
        timeline = Timeline(sm_capacity=100, context_switch_cycles=0,
                            spatial=False)
        tasks = [
            kernel_task(context=1, stream=1, work=1000, demand=10),
            kernel_task(context=2, stream=2, work=1000, demand=10),
        ]
        result = timeline.run(tasks)
        assert result.makespan_cycles == pytest.approx(200.0)

    def test_context_switch_cost_charged(self):
        timeline = Timeline(sm_capacity=100,
                            context_switch_cycles=5000, spatial=False)
        tasks = [
            kernel_task(context=1, stream=1, work=1000, demand=10),
            kernel_task(context=2, stream=2, work=1000, demand=10),
        ]
        result = timeline.run(tasks)
        assert result.context_switches == 1
        assert result.makespan_cycles == pytest.approx(5200.0)

    def test_spatial_beats_timeshare(self):
        tasks = lambda: [
            kernel_task(context=c, stream=c, work=5000, demand=20)
            for c in (1, 2)
        ]
        spatial = Timeline(100, 1000, spatial=True).run(tasks())
        shared = Timeline(100, 1000, spatial=False).run(tasks())
        assert spatial.makespan_cycles < shared.makespan_cycles


class TestReleases:
    def test_release_delays_start(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        result = timeline.run([
            kernel_task(work=1000, demand=10, release=500.0)
        ])
        assert result.makespan_cycles == pytest.approx(600.0)

    def test_submission_pipeline_bubbles(self):
        """A slow submitter starves the GPU: makespan tracks releases
        rather than device work — how interception overhead shows up."""
        timeline = Timeline(sm_capacity=100, spatial=True)
        tasks = [
            kernel_task(stream=1, work=100, demand=10,
                        release=1000.0 * i)
            for i in range(5)
        ]
        result = timeline.run(tasks)
        assert result.makespan_cycles == pytest.approx(4010.0)

    def test_release_does_not_block_other_stream(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        blocked = kernel_task(stream=1, work=100, demand=10,
                              release=10_000.0)
        ready = kernel_task(stream=2, work=1000, demand=10)
        result = timeline.run([blocked, ready])
        assert result.task_finish[ready.seq] == pytest.approx(100.0)


class TestAccounting:
    def test_per_tag_completion(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        tasks = [
            kernel_task(stream=1, work=1000, demand=10, tag="a"),
            kernel_task(stream=2, work=3000, demand=10, tag="b"),
        ]
        result = timeline.run(tasks)
        assert result.completion_by_tag["a"] == pytest.approx(100.0)
        assert result.completion_by_tag["b"] == pytest.approx(300.0)

    def test_fixed_cycles_extend_solo_run(self):
        timeline = Timeline(sm_capacity=100, spatial=True)
        with_fixed = kernel_task(work=1000, demand=10)
        with_fixed.fixed_cycles = 50.0
        result = timeline.run([with_fixed])
        assert result.makespan_cycles == pytest.approx(150.0)

    def test_empty_run(self):
        result = Timeline(100).run([])
        assert result.makespan_cycles == 0.0


class TestDegenerateInputs:
    """Inputs the event loop cannot finish on are refused up front: a
    NaN or infinite work never drains below the completion threshold
    (the loop spun forever), and a NaN release compares false against
    every clock, so it was admitted at the batch start."""

    @pytest.mark.parametrize("field,value", [
        ("work_cycles", math.nan), ("work_cycles", math.inf),
        ("fixed_cycles", math.nan), ("fixed_cycles", -math.inf),
        ("release", math.nan), ("release", math.inf),
    ])
    @pytest.mark.parametrize("make", [kernel_task, copy_task],
                             ids=["kernel", "copy"])
    def test_non_finite_task_is_refused(self, make, field, value):
        good = kernel_task(stream=1)
        bad = make(stream=2)
        setattr(bad, field, value)
        with pytest.raises(ValueError,
                           match=rf"seq {bad.seq} \({bad.kind}\)"):
            Timeline(sm_capacity=100).run([good, bad])

    @pytest.mark.parametrize("capacity", [0, -1, 0.5])
    def test_capacity_below_one_is_refused(self, capacity):
        with pytest.raises(ValueError, match="sm_capacity"):
            Timeline(sm_capacity=capacity)

    def test_capacity_one_runs(self):
        result = Timeline(sm_capacity=1).run(
            [kernel_task(work=10, demand=4)])
        assert result.makespan_cycles == pytest.approx(10.0)


class TestStreamScaling:
    """An event step touches the streams whose state changed, not every
    stream: a release-bound batch costs about the same per task over
    600 streams as over 6. A scan of every stream per step read 21x
    (7.8 -> 163 us/task). Min-of-5 process time, as a ratio."""

    @staticmethod
    def _per_task(streams, tasks=600):
        batch = [
            GpuTask(kind="h2d", context_id=1, stream_key=(1, index % streams),
                    work_cycles=10.0, release=100.0 * index)
            for index in range(tasks)
        ]
        timeline = Timeline(sm_capacity=100)
        best = math.inf
        for _ in range(5):
            begin = time.process_time()
            result = timeline.run(batch)
            best = min(best, time.process_time() - begin)
        assert result.makespan_cycles == pytest.approx(100.0 * tasks - 90)
        return best / tasks

    def test_per_task_cost_does_not_grow_with_streams(self):
        few = self._per_task(6)
        many = self._per_task(600)
        assert many / few < 4, (
            f"per-task cost grew {many / few:.1f}x from 6 to 600 streams "
            f"- the timeline scans every stream per step again"
        )
