"""Hot-path caching & batching: the beyond-the-paper optimisation.

Runs the same fig7-style multi-tenant sharing workload twice — once
with the hot-path caches/batching disabled and once enabled — and
measures total host work (server busy cycles + every client's
IPC-charged critical path). Both arms charge the offline patch/extract
work (``charge_patch_cycles=True``) so the comparison includes the
deployment cost the patch cache amortises. The stock server's Table 5
launch breakdown and the fast path's steady-state launch cost are
pinned cycle for cycle in tier-1 (``tests/core/test_cycle_accounting.py``,
``tests/core/test_hotpath_caching.py``).
"""

from __future__ import annotations

from repro.analysis.reporting import render_hotpath_report
from repro.core.ipc import IPCStats
from repro.core.server import ServerConfig

from benchmarks.conftest import (
    SHARING_ITERATIONS as ITERATIONS,
    SHARING_TENANTS as TENANTS,
    emit_bench_json,
    host_cycles,
    run_sharing_workload,
)


class TestHotPathCaching:
    def test_caching_cuts_total_cycles(self, once):
        disabled_cfg = ServerConfig(charge_patch_cycles=True)
        enabled_cfg = ServerConfig.hotpath(charge_patch_cycles=True)

        def run_both():
            disabled = run_sharing_workload(disabled_cfg)
            enabled = run_sharing_workload(enabled_cfg)
            return disabled, enabled

        disabled, enabled = once(run_both)

        print()
        print(render_hotpath_report(*disabled, title="caches disabled"))
        print()
        print(render_hotpath_report(*enabled, title="caches enabled"))
        disabled_total = host_cycles(*disabled)
        enabled_total = host_cycles(*enabled)
        reduction = 1 - enabled_total / disabled_total
        print(f"total host cycles: reduction {reduction * 100:.1f}%")

        emit_bench_json("hotpath_caching", {
            "disabled_total_cycles": disabled_total,
            "enabled_total_cycles": enabled_total,
            "cached_vs_default_ratio": enabled_total / disabled_total,
            "reduction": reduction,
            "tenants": TENANTS,
            "iterations": ITERATIONS,
        })

        # The acceptance bar: >= 25% less total host work.
        assert enabled_total <= 0.75 * disabled_total

        # Each optimisation actually engaged.
        server, clients = enabled
        ipc = sum((client.channel.stats for client in clients), IPCStats())
        assert server.stats.patch_cache_misses == 1
        assert server.stats.patch_cache_hits == TENANTS - 1
        assert server.stats.extract_cache_hits == TENANTS - 1
        assert server.stats.fastpath_hits > 0
        assert ipc.batches > 0
        assert ipc.mean_batch_size > 1.0

        # The disabled arm never exercised any cache.
        server, clients = disabled
        assert server.stats.patch_cache_hits == 0
        assert server.stats.fastpath_hits == 0
        assert all(client.channel.stats.batches == 0 for client in clients)
