"""Multi-tenant dispatch scaling: the concurrent-lanes optimisation.

Runs a fig7-style sharing workload at increasing tenant counts, twice
per point — stock serial dispatch and ``ServerConfig.concurrent()`` —
and reports the modelled makespan speedup (total host work divided by
the lane critical path). Independent tenants overlap everywhere except
the shared critical section (allocator mutations, bounds writes,
patch-cache misses), so the curve should climb toward the lane count
and must clear **2.5x at 8 tenants** (the CI regression floor).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import collect_all
from repro.analysis.reporting import render_lane_report
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer, ServerConfig
from repro.driver.fatbin import build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from benchmarks.conftest import emit_bench_json, print_table
from tests.conftest import make_guardian_tenant, saxpy_module

TENANT_COUNTS = (1, 2, 4, 8)
ITERATIONS = 25
SYNC_EVERY = 5
PARTITION = 1 << 20

#: The CI gate (mirrored in bench_baseline.json): 8 independent
#: tenants must overlap to at least this modelled speedup.
SPEEDUP_FLOOR_8_TENANTS = 2.5


def run_sharing_workload(tenants: int, config: ServerConfig):
    """``tenants`` independent tenants deploy the same library and
    iterate (h2d, h2d, launch), synchronising every SYNC_EVERY."""
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE, config=config)

    handles = []
    for index in range(tenants):
        client, _ = make_guardian_tenant(server, f"t{index}", PARTITION)
        kernel = client.register_fatbin(
            build_fatbin(saxpy_module(), "libsaxpy", "11.7"))["saxpy"]
        buf = client.malloc(512)
        handles.append((client, kernel, buf))

    payload = np.ones(16, dtype=np.float32).tobytes()
    for iteration in range(ITERATIONS):
        for client, kernel, buf in handles:
            client.memcpy_h2d(buf, payload)
            client.memcpy_h2d(buf + 256, payload)
            client.launch_kernel(kernel, (1, 1, 1), (16, 1, 1),
                                 [buf, buf + 256, 2.0, 16])
        if (iteration + 1) % SYNC_EVERY == 0:
            for client, _, _ in handles:
                client.synchronize()
    device.synchronize(spatial=True)
    return server


class TestMultiTenantScaling:
    def test_lanes_scale_makespan_with_tenant_count(self, once):
        def sweep():
            points = []
            for tenants in TENANT_COUNTS:
                serial = run_sharing_workload(tenants, ServerConfig())
                concurrent = run_sharing_workload(
                    tenants, ServerConfig.concurrent())
                points.append((tenants, serial, concurrent))
            return points

        points = once(sweep)

        rows = []
        speedups = {}
        for tenants, serial, concurrent in points:
            metrics = collect_all(concurrent).lanes
            speedups[tenants] = metrics.speedup
            rows.append([
                tenants,
                f"{serial.stats.cycles:,.0f}",
                f"{concurrent.stats.cycles:,.0f}",
                f"{concurrent.makespan_cycles():,.0f}",
                f"{metrics.speedup:.2f}x",
                f"{metrics.overlap_efficiency * 100:.0f}%",
            ])
        print_table(
            "Multi-tenant scaling: serial vs concurrent dispatch",
            ["tenants", "serial cycles", "work", "makespan",
             "speedup", "lane eff."],
            rows,
        )
        _, _, eight = points[-1]
        print()
        print(render_lane_report(collect_all(eight).lanes,
                                 title="Dispatch lanes (8 tenants)"))

        emit_bench_json("multitenant_scaling", {
            "tenant_counts": list(TENANT_COUNTS),
            "speedup_by_tenants": {
                str(tenants): speedups[tenants]
                for tenants in TENANT_COUNTS
            },
            "speedup_8_tenants": speedups[8],
            "iterations": ITERATIONS,
        })

        # Serial arm: lanes off means the makespan IS the busy clock.
        for tenants, serial, _ in points:
            assert serial.makespan_cycles() == serial.stats.cycles
            assert serial.lanes() == []

        # Work is conserved on every concurrent point...
        for tenants, _, concurrent in points:
            lanes = concurrent.lanes()
            assert len(lanes) == tenants
            assert abs(sum(lane.busy for lane in lanes)
                       - concurrent.stats.cycles) < 1e-6

        # ...the curve is monotone in tenant count...
        ordered = [speedups[tenants] for tenants in TENANT_COUNTS]
        assert ordered == sorted(ordered)

        # ...and 8 independent tenants clear the CI floor.
        assert speedups[8] >= SPEEDUP_FLOOR_8_TENANTS, (
            f"8-tenant modelled speedup {speedups[8]:.2f}x below the "
            f"{SPEEDUP_FLOOR_8_TENANTS}x floor"
        )
