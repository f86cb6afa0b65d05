"""TenantSupervisor: deadlines, retries, budget, quarantine, containment."""

from unittest import mock

import numpy as np
import pytest

from repro import FencingMode, GuardianSystem
from repro.analysis.reporting import render_failure_report
from repro.core import supervisor as supervision
from repro.core.server import GuardianServer
from repro.core.supervisor import BACKOFF_BASE_CYCLES, TenantSupervisor
from repro.driver.fatbin import build_fatbin
from repro.errors import (
    AllocationError,
    BoundsViolation,
    ClientCrashed,
    GuardianError,
    StreamFault,
    TenantQuarantined,
    TransientIPCFault,
)
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from tests.conftest import saxpy_module

PARTITION = 1 << 20


def system_with(specs, seed=0):
    return GuardianSystem(fault_plan=FaultPlan(specs, seed=seed))


class TestTransientIPCFaults:
    def test_drop_within_budget_is_retried_transparently(self):
        sys = system_with([FaultSpec(FaultKind.IPC_DROP, tenant="a", op="malloc", times=2)])
        tenant = sys.attach("a", PARTITION)
        assert tenant.runtime.cudaMalloc(256) > 0  # the call still lands
        (record,) = [r for r in sys.supervisor.records if r.action == "retried"]
        assert record.kind == "ipc_drop"
        assert record.attempts == 2
        assert record.cycles > 0

    def test_retry_backoff_is_charged_to_the_caller(self):
        sys = system_with(
            [FaultSpec(FaultKind.IPC_DROP, tenant="a", op="malloc", at_call=2, times=3)]
        )
        tenant = sys.attach("a", PARTITION)
        server = sys.server
        tenant.runtime.cudaMalloc(64)
        clean = server.stats.cycles
        tenant.runtime.cudaMalloc(64)  # the faulted call
        faulted_delta = server.stats.cycles - clean
        backoff = sum(BACKOFF_BASE_CYCLES * 2**i for i in range(3))
        expected = server.costs.malloc + server.costs.driver.malloc + backoff
        assert faulted_delta == pytest.approx(expected)

    def test_exhausted_retries_surface_ipc_error(self):
        sys = system_with([FaultSpec(FaultKind.IPC_CORRUPT, tenant="a", op="malloc", times=99)])
        tenant = sys.attach("a", PARTITION)
        with pytest.raises(TransientIPCFault):
            tenant.runtime.cudaMalloc(256)
        (record,) = [r for r in sys.supervisor.records if r.action == "exhausted"]
        assert record.kind == "ipc_corrupt"
        # A clean retry later still works: the tenant is not dead yet.
        assert tenant.runtime.cudaMalloc(256) > 0

    def test_duplicate_delivery_executes_once(self):
        sys = system_with([FaultSpec(FaultKind.IPC_DUPLICATE, tenant="a", op="malloc")])
        tenant = sys.attach("a", PARTITION)
        tenant.runtime.cudaMalloc(256)
        heap_used = sys.server.allocator.partition("a").heap.bytes_in_use
        assert heap_used == 256  # not 512: the duplicate was suppressed
        assert any(r.action == "suppressed" for r in sys.supervisor.records)

    def test_delay_trips_the_deadline(self):
        sys = system_with(
            [FaultSpec(FaultKind.IPC_DELAY, tenant="a", op="synchronize", magnitude=1.0)]
        )
        with mock.patch.object(supervision, "DEADLINE_CYCLES", 100_000.0):
            tenant = sys.attach("a", PARTITION)
            tenant.runtime.cudaDeviceSynchronize()
        actions = [record.action for record in sys.supervisor.records]
        assert actions.count("deadline") == 1
        assert actions.count("delayed") == 1


class TestModuleFaults:
    def test_truncated_ptx_rejected_cleanly(self):
        sys = system_with(
            [FaultSpec(FaultKind.PTX_TRUNCATE, tenant="a", op="load_module_ptx")], seed=11
        )
        tenant = sys.attach("a", PARTITION)
        from repro.ptx.emitter import emit_module

        text = emit_module(saxpy_module())
        with pytest.raises(Exception) as failure:
            tenant.client.load_module_ptx(text)
        assert not isinstance(failure.value, AssertionError)
        # Clean rejection, recorded, and the tenant still works.
        assert any(r.action == "rejected" for r in sys.supervisor.records)
        assert tenant.runtime.cudaMalloc(128) > 0
        assert "saxpy" in tenant.client.load_module_ptx(text)

    def test_corrupted_fatbin_never_crashes_the_server(self):
        for seed in range(6):
            sys = system_with(
                [FaultSpec(FaultKind.PTX_CORRUPT, tenant="a", op="register_fatbin")], seed=seed
            )
            tenant = sys.attach("a", PARTITION)
            fatbin = build_fatbin(saxpy_module(), "lib", "11.7")
            try:
                tenant.runtime.registerFatBinary(fatbin)
            except GuardianError:
                pass
            except Exception as failure:
                # Any non-Repro error would have been a server crash.
                from repro.errors import ReproError

                assert isinstance(failure, ReproError), failure
            # The server survived; a healthy deploy goes through.
            clean = build_fatbin(saxpy_module(), "lib", "11.7")
            assert "saxpy" in tenant.runtime.registerFatBinary(clean)


class TestAllocatorFaults:
    def test_injected_exhaustion_is_a_clean_allocation_error(self):
        sys = system_with([FaultSpec(FaultKind.ALLOC_EXHAUST, tenant="a", at_call=2)])
        tenant = sys.attach("a", PARTITION)
        first = tenant.runtime.cudaMalloc(128)
        assert first > 0
        with pytest.raises(AllocationError, match="injected"):
            tenant.runtime.cudaMalloc(128)
        assert tenant.runtime.cudaMalloc(128) > 0


class TestStreamFaults:
    def _wedge(self):
        sys = system_with(
            [FaultSpec(FaultKind.STREAM_FAULT, tenant="bad", op="launch_kernel")],
            seed=5,
        )
        bad = sys.attach("bad", PARTITION)
        handles = bad.runtime.registerFatBinary(build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = bad.runtime.cudaMalloc(512)
        bad.runtime.cudaMemcpyH2D(buf + 256, np.ones(32, dtype=np.float32).tobytes())
        bad.runtime.cudaLaunchKernel(
            handles["saxpy"], (1, 1, 1), (32, 1, 1), [buf, buf + 256, 2.0, 32]
        )
        return sys, bad

    def test_fault_surfaces_at_next_ordering_point(self):
        sys, bad = self._wedge()
        with pytest.raises(StreamFault):
            bad.runtime.cudaDeviceSynchronize()

    def test_wedged_stream_quarantines_the_tenant(self):
        sys, bad = self._wedge()
        with pytest.raises(StreamFault):
            bad.runtime.cudaDeviceSynchronize()
        with pytest.raises(TenantQuarantined):
            bad.runtime.cudaMalloc(64)
        assert sys.supervisor.is_quarantined("bad")
        assert sys.server.tenant_count == 0
        assert sys.server.stats.streams_destroyed == 1
        (record,) = sys.supervisor.quarantines
        assert record.tenant == "bad"
        assert "stream fault" in record.reason
        assert record.bytes_scrubbed == PARTITION


class TestQuarantineContainment:
    @pytest.fixture(autouse=True)
    def budget_of_six(self):
        with mock.patch.object(supervision, "FAULT_BUDGET", 6.0):
            yield

    def _storm(self):
        """One violator hammers the fence until quarantined, next to a
        healthy neighbour with live state."""
        sys = GuardianSystem(fault_plan=FaultPlan())  # supervised
        good = sys.attach("good", PARTITION)
        bad = sys.attach("bad", PARTITION)
        handles = good.runtime.registerFatBinary(build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = good.runtime.cudaMalloc(512)
        good.runtime.cudaMemcpyH2D(buf + 256, np.ones(32, dtype=np.float32).tobytes())
        bad_buf = bad.runtime.cudaMalloc(512)
        return sys, good, bad, handles, buf, bad_buf

    def test_violation_budget_escalates_to_quarantine(self):
        sys, good, bad, handles, buf, bad_buf = self._storm()
        outside = sys.server.allocator.bounds.lookup("good").base
        raised = 0
        for _ in range(3):
            try:
                bad.runtime.cudaMemcpyH2D(outside, b"attack")
                bad.runtime.cudaDeviceSynchronize()
            except BoundsViolation:
                raised += 1
            except TenantQuarantined:
                break
        assert raised >= 2  # weight 2.0 each against a budget of 6
        with pytest.raises(TenantQuarantined):
            bad.runtime.cudaMalloc(64)

    def test_neighbour_epochs_and_data_unaffected(self):
        sys, good, bad, handles, buf, bad_buf = self._storm()
        epochs_before = sys.server.allocator.bounds.epochs()
        outside = sys.server.allocator.bounds.lookup("good").base
        for _ in range(4):
            try:
                bad.runtime.cudaMemcpyH2D(outside, b"attack")
            except (BoundsViolation, TenantQuarantined):
                pass
        assert sys.supervisor.is_quarantined("bad")
        epochs_after = sys.server.allocator.bounds.epochs()
        # Only the quarantined tenant's row moved.
        survivors_after = {k: v for k, v in epochs_after.items() if k != "bad"}
        survivors_before = {k: v for k, v in epochs_before.items() if k != "bad"}
        assert survivors_after == survivors_before
        # The neighbour's pipeline still runs end to end.
        good.runtime.cudaLaunchKernel(
            handles["saxpy"], (1, 1, 1), (32, 1, 1), [buf, buf + 256, 2.0, 32]
        )
        out = np.frombuffer(good.runtime.cudaMemcpyD2H(buf, 128), dtype=np.float32)
        assert np.allclose(out, 2.0)

    def test_quarantine_scrubs_the_partition(self):
        sys, good, bad, handles, buf, bad_buf = self._storm()
        bad.runtime.cudaMemcpyH2D(bad_buf, b"secret!" * 64)
        bad.runtime.cudaDeviceSynchronize()
        record = sys.server.allocator.bounds.lookup("bad")
        base, size = record.base, record.size
        assert b"secret!" in sys.device.memory.read(base, size)
        sys.supervisor.reap("bad")
        assert sys.device.memory.read(base, size) == bytes(size)

    def test_readmission_after_quarantine(self):
        sys, good, bad, handles, buf, bad_buf = self._storm()
        sys.supervisor.reap("bad")
        assert sys.supervisor.is_quarantined("bad")
        reborn = sys.attach("bad", PARTITION)
        assert not sys.supervisor.is_quarantined("bad")
        assert reborn.runtime.cudaMalloc(64) > 0


class TestClientCrash:
    def test_crash_mid_batch_is_contained(self):
        from repro.core.server import ServerConfig

        plan = FaultPlan(
            [FaultSpec(FaultKind.CLIENT_CRASH, tenant="dead", op="launch_kernel", at_call=3)]
        )
        sys = GuardianSystem(config=ServerConfig.hotpath(), fault_plan=plan)
        dead = sys.attach("dead", PARTITION)
        survivor = sys.attach("survivor", PARTITION)
        handles = dead.runtime.registerFatBinary(build_fatbin(saxpy_module(), "lib", "11.7"))
        buf = dead.runtime.cudaMalloc(512)
        with pytest.raises(ClientCrashed):
            for _ in range(5):
                dead.runtime.cudaLaunchKernel(
                    handles["saxpy"], (1, 1, 1), (16, 1, 1), [buf, buf + 256, 1.0, 16]
                )
        # The crash stranded a non-empty batch in the channel.
        assert dead.client.channel.queued_calls > 0
        sys.reap("dead")
        # The batch was discarded, not delivered posthumously.
        assert dead.client.channel.stats.discarded_calls > 0
        assert sys.server.tenant_count == 1
        assert any(r.action == "reaped" for r in sys.supervisor.records)
        # Partition is recyclable and the survivor unharmed.
        late = sys.attach("late", PARTITION)
        assert late.runtime.cudaMalloc(128) > 0
        assert survivor.runtime.cudaMalloc(128) > 0

    def test_detach_of_crashed_client_reaps(self):
        plan = FaultPlan([FaultSpec(FaultKind.CLIENT_CRASH, tenant="dead", op="malloc")])
        sys = GuardianSystem(fault_plan=plan)
        dead = sys.attach("dead", PARTITION)
        with pytest.raises(ClientCrashed):
            dead.runtime.cudaMalloc(64)
        sys.detach("dead")
        assert sys.server.tenant_count == 0
        assert dead.client.channel.closed


class TestNoPlanPassThrough:
    """Supervision with no plan must be invisible: bit-identical costs."""

    def _charge_trace(self, target, server):
        trace = []
        _, cycles = target.attach("a", PARTITION)
        trace.append(cycles)
        handles, cycles = target.register_fatbin("a", build_fatbin(saxpy_module(), "lib", "11.7"))
        trace.append(cycles)
        buf, cycles = target.malloc("a", 512)
        trace.append(cycles)
        _, cycles = target.memcpy_h2d("a", buf, np.ones(64, dtype=np.float32).tobytes())
        trace.append(cycles)
        _, cycles = target.launch_kernel(
            "a", handles["saxpy"], (1, 1, 1), (64, 1, 1), [buf, buf, 2.0, 64]
        )
        trace.append(cycles)
        _, cycles = target.synchronize("a")
        trace.append(cycles)
        _, cycles = target.free("a", buf)
        trace.append(cycles)
        trace.append(server.stats.cycles)
        return trace

    def test_supervised_costs_bit_identical_to_stock(self):
        stock = GuardianServer(Device(QUADRO_RTX_A4000), FencingMode.BITWISE)
        supervised_server = GuardianServer(Device(QUADRO_RTX_A4000), FencingMode.BITWISE)
        supervisor = TenantSupervisor(supervised_server)
        stock_trace = self._charge_trace(stock, stock)
        supervised_trace = self._charge_trace(supervisor, supervised_server)
        assert stock_trace == supervised_trace
        assert supervisor.records == []
        assert supervisor.quarantines == []


def quarantined_supervisor():
    """A stream fault on ``bad``'s h2d, surfaced at its sync."""
    sys = system_with(
        [FaultSpec(FaultKind.STREAM_FAULT, tenant="bad", op="memcpy_h2d")], seed=5
    )
    bad = sys.attach("bad", PARTITION)
    buf = bad.runtime.cudaMalloc(256)
    bad.runtime.cudaMemcpyH2D(buf, b"x" * 256)
    with pytest.raises(StreamFault):
        bad.runtime.cudaDeviceSynchronize()
    return sys.supervisor


class TestFailureReporting:
    def test_report_renders_quarantine_event(self):
        supervisor = quarantined_supervisor()
        assert len(supervisor.quarantines) == 1
        assert any(record.kind == "stream_fault" for record in supervisor.records)
        report = render_failure_report(supervisor)
        assert "QUARANTINED" in report
        assert "stream_fault" in report
        assert "bytes scrubbed" in report


class TestBackoffJitter:
    def _supervisor(self, jitter, seed=11):
        server = GuardianServer(Device(QUADRO_RTX_A4000),
                                FencingMode.BITWISE)
        return TenantSupervisor(
            server, plan=FaultPlan([], seed=seed), backoff_jitter=jitter,
        )

    def test_zero_jitter_is_exact_stock_sum(self):
        supervisor = self._supervisor(jitter=0.0)
        assert supervisor._backoff_cycles(3) == BACKOFF_BASE_CYCLES * (1 + 2 + 4)

    def test_zero_jitter_never_draws(self):
        """Enabling jitter in one run must not shift another run's RNG
        draws — with jitter off the RNG is never consulted."""
        supervisor = self._supervisor(jitter=0.0)
        before = supervisor._jitter_rng.getstate()
        supervisor._backoff_cycles(3)
        assert supervisor._jitter_rng.getstate() == before

    def test_jitter_bounded_per_step(self):
        for attempts in (1, 2, 3):
            exact = BACKOFF_BASE_CYCLES * (2 ** attempts - 1)
            jittered = self._supervisor(jitter=0.5)._backoff_cycles(
                attempts)
            assert exact * 0.75 <= jittered <= exact * 1.25
            assert jittered != exact

    def test_jitter_is_seeded_from_the_plan(self):
        """Same plan seed, same draws — gauntlet runs stay
        reproducible; a different seed jitters differently."""
        first = self._supervisor(jitter=0.25, seed=5)
        second = self._supervisor(jitter=0.25, seed=5)
        other = self._supervisor(jitter=0.25, seed=6)
        trace_a = [first._backoff_cycles(3) for _ in range(4)]
        trace_b = [second._backoff_cycles(3) for _ in range(4)]
        trace_c = [other._backoff_cycles(3) for _ in range(4)]
        assert trace_a == trace_b
        assert trace_a != trace_c

    def test_retry_path_charges_jittered_cycles(self):
        """End-to-end: a retried drop with jitter on still recovers,
        and two identically-seeded systems charge identical cycles."""
        def run():
            sys = system_with(
                [FaultSpec(FaultKind.IPC_DROP, tenant="a",
                           op="malloc", at_call=1, times=2)],
                seed=9,
            )
            sys.supervisor.backoff_jitter = 0.3
            tenant = sys.attach("a", PARTITION)
            tenant.runtime.cudaMalloc(256)
            return [(r.action, r.cycles) for r in sys.supervisor.records]

        first, second = run(), run()
        assert first == second
        assert first[0][0] == "retried"
        assert first[0][1] > 0
