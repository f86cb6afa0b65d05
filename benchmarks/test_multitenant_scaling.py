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

from repro.analysis.reporting import render_lane_report
from repro.core.server import ServerConfig

from benchmarks.conftest import (
    emit_bench_json,
    print_table,
    run_sharing_workload,
)

TENANT_COUNTS = (1, 2, 4, 8)
ITERATIONS = 25
SYNC_EVERY = 5

#: The CI gate (mirrored in bench_baseline.json): 8 independent
#: tenants must overlap to at least this modelled speedup.
SPEEDUP_FLOOR_8_TENANTS = 2.5


class TestMultiTenantScaling:
    def test_lanes_scale_makespan_with_tenant_count(self, once):
        def sweep():
            points = []
            for tenants in TENANT_COUNTS:
                serial, _ = run_sharing_workload(
                    ServerConfig(), tenants, ITERATIONS, SYNC_EVERY)
                concurrent, _ = run_sharing_workload(
                    ServerConfig.concurrent(), tenants, ITERATIONS,
                    SYNC_EVERY)
                points.append((tenants, serial, concurrent))
            return points

        points = once(sweep)

        rows = []
        speedups = {}
        for tenants, serial, concurrent in points:
            speedups[tenants] = concurrent.lane_speedup()
            rows.append([
                tenants,
                f"{serial.stats.cycles:,.0f}",
                f"{concurrent.stats.cycles:,.0f}",
                f"{concurrent.makespan_cycles():,.0f}",
                f"{speedups[tenants]:.2f}x",
            ])
        print_table(
            "Multi-tenant scaling: serial vs concurrent dispatch",
            ["tenants", "serial cycles", "work", "makespan", "speedup"],
            rows,
        )
        _, _, eight = points[-1]
        print()
        print(render_lane_report(eight, title="Dispatch lanes (8 tenants)"))

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
