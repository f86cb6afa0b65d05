"""Device facade tests: contexts, allocation, submission, sync."""

import time

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.gpu.device import Device
from repro.gpu.executor import compile_kernel
from repro.gpu.specs import GEFORCE_RTX_3080TI, QUADRO_RTX_A4000

from tests.conftest import saxpy_kernel


@pytest.fixture
def device():
    return Device(QUADRO_RTX_A4000)


class TestContexts:
    def test_context_ids_unique(self, device):
        a = device.create_context("a")
        b = device.create_context("b")
        assert a.context_id != b.context_id

    def test_destroy_releases_memory(self, device):
        context = device.create_context("a")
        device.allocate(context, 1 << 20)
        used = device.allocator.bytes_in_use
        device.destroy_context(context)
        assert device.allocator.bytes_in_use == used - (1 << 20)

    def test_default_stream_exists(self, device):
        context = device.create_context("a")
        assert context.default_stream is not None
        assert context.default_stream.context_id == context.context_id


class TestSubmission:
    def test_functional_now_timing_later(self, device):
        """D2H data is correct before synchronize() resolves timing."""
        context = device.create_context("a")
        stream = context.default_stream
        addr = device.allocate(context, 256)
        device.submit_h2d(stream, addr, b"\x42" * 256)
        data = device.submit_d2h(stream, addr, 256)
        assert data == b"\x42" * 256
        assert device.pending_tasks == 2
        device.synchronize()
        assert device.pending_tasks == 0

    def test_kernel_submission_counts(self, device):
        context = device.create_context("a")
        compiled = compile_kernel(saxpy_kernel(), device.spec)
        addr = device.allocate(context, 4096)
        device.submit_kernel(context.default_stream, compiled,
                             (1, 1, 1), (32, 1, 1),
                             [addr, addr, 1.0, 16])
        assert device.metrics.kernels_launched == 1

    def test_stream_pending_counts_per_stream(self, device):
        first = device.create_context("a").default_stream
        second = device.create_context("b").default_stream
        for _ in range(3):
            device.submit_memset(first, device.memory.base, 0, 64)
        device.submit_memset(second, device.memory.base, 0, 64)
        assert device.stream_pending(first) == 3
        assert device.stream_pending(second) == 1
        device.synchronize()
        assert device.stream_pending(first) == 0
        assert device.stream_pending(second) == 0

    def test_memset(self, device):
        context = device.create_context("a")
        addr = device.allocate(context, 128)
        device.submit_memset(context.default_stream, addr, 0xAA, 128)
        assert device.memory.read(addr, 128) == b"\xaa" * 128

    def test_clock_advances(self, device):
        context = device.create_context("a")
        addr = device.allocate(context, 1 << 16)
        device.submit_h2d(context.default_stream, addr, b"x" * (1 << 16))
        device.synchronize()
        assert device.clock_cycles > 0
        assert device.elapsed_seconds() > 0

    def test_oom(self, device):
        context = device.create_context("a")
        with pytest.raises(AllocationError):
            device.allocate(context, device.spec.global_memory_bytes + 1)


class TestStreamPendingScaling:
    """``stream_pending`` is a counter lookup, not a scan of every
    unresolved task: a tenant that never drains the device must not
    pay more per call the longer it runs.

    Same methodology as the allocator's churn tests: pin the
    complexity class with a min-of-5 ratio, not a wall-clock number.
    The scan measured ~4x per call here (62 -> 245 us in the ledger's
    launch storm) for the same 20x longer run.
    """

    @staticmethod
    def _undrained_storm(iterations, probes=2000):
        """Per-call cost of ``stream_pending`` behind a backlog of
        ``iterations`` undrained submits (each followed by the tenant's
        own ``stream_pending``, as a launch storm does)."""
        device = Device(QUADRO_RTX_A4000)
        stream = device.create_context("a").default_stream
        address = device.memory.base
        for _ in range(iterations):
            device.submit_memset(stream, address, 0, 64)
            device.stream_pending(stream)
        begin = time.perf_counter()
        for _ in range(probes):
            device.stream_pending(stream)
        elapsed = time.perf_counter() - begin
        assert device.stream_pending(stream) == iterations
        return elapsed / probes

    def test_per_call_cost_does_not_grow_with_backlog(self):
        short = min(self._undrained_storm(200) for _ in range(5))
        long = min(self._undrained_storm(4000) for _ in range(5))
        assert long / short < 1.5, (
            f"per-call cost grew {long / short:.1f}x from 200 to 4000 "
            f"undrained iterations - stream_pending scans again"
        )


class TestSpecs:
    def test_table2_values_a4000(self):
        spec = QUADRO_RTX_A4000
        assert spec.num_sms == 48
        assert spec.cuda_cores == 6144
        assert spec.l1_kb == 128
        assert spec.l2_kb == 4096
        assert spec.global_memory_bytes == 16 << 30
        assert spec.l1_hit_cycles == 28
        assert spec.l2_hit_cycles == 193
        assert spec.global_avg_cycles == 285
        assert spec.ecc

    def test_table2_values_3080ti(self):
        spec = GEFORCE_RTX_3080TI
        assert spec.num_sms == 80
        assert spec.cuda_cores == 10240
        assert spec.global_memory_bytes == 12 << 30
        assert spec.global_bw_gbps == 912.0
        assert not spec.ecc

    def test_geforce_has_more_capacity(self):
        a = Device(QUADRO_RTX_A4000)
        b = Device(GEFORCE_RTX_3080TI)
        assert b.sm_capacity > a.sm_capacity
