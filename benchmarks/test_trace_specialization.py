"""Trace specialization: compiling the steady state away.

Runs the hot-path benchmark's fig7-style sharing workload twice — once
with everything off and once with ``ServerConfig.traced()`` (hot-path
caches + trace specialization + vectorized bounds) plus a disk-backed
patch cache — and measures total host work. The traced arm must beat
the plain hot-path arm's 0.40 cached-vs-default ratio: once a tenant's
sync-delimited block stabilises, replayed blocks pay one fused submit
plus ``trace_replay_op`` per call instead of per-call dispatch,
lookups, bounds checks and launch syscalls.

The disk cache runs against a tmpdir (never ``~/.cache``) and a second
server process-alike sharing the same directory must patch nothing —
the cold-start amortization story.
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

#: The acceptance bar from ISSUE 8: beat PR 1's 0.40 cached-vs-default
#: cycle ratio by a clear margin.
MAX_RATIO = 0.30


class TestTraceSpecialization:
    def test_traced_beats_hotpath_ratio(self, once, tmp_path):
        cache_dir = str(tmp_path / "guardian-patch-cache")
        disabled_cfg = ServerConfig(charge_patch_cycles=True)
        traced_cfg = ServerConfig.traced(charge_patch_cycles=True,
                                         patch_cache_dir=cache_dir)

        def run_both():
            disabled = run_sharing_workload(disabled_cfg)
            traced = run_sharing_workload(traced_cfg)
            return disabled, traced

        disabled, traced = once(run_both)

        print()
        print(render_hotpath_report(*disabled, title="everything off"))
        print()
        print(render_hotpath_report(*traced, title="trace-specialized"))
        disabled_total = host_cycles(*disabled)
        traced_total = host_cycles(*traced)
        ratio = traced_total / disabled_total
        print(f"total host cycles: traced/default ratio {ratio:.4f} "
              f"(ceiling {MAX_RATIO})")

        server, clients = traced
        stats = server.stats
        ipc = sum((client.channel.stats for client in clients), IPCStats())
        emit_bench_json("trace_specialization", {
            "disabled_total_cycles": disabled_total,
            "traced_total_cycles": traced_total,
            "cached_vs_default_ratio": ratio,
            "traces_compiled": stats.traces_compiled,
            "trace_replays": stats.trace_replays,
            "trace_replay_ops": stats.trace_replay_ops,
            "trace_replay_rate": stats.trace_replay_rate,
            "marshal_cached_calls": ipc.marshal_cached_calls,
            "tenants": TENANTS,
            "iterations": ITERATIONS,
        })

        # The headline bar: beat PR 1's 0.40 with room to spare.
        assert ratio <= MAX_RATIO

        # Every layer actually engaged.
        assert stats.traces_compiled == TENANTS
        assert stats.trace_replays >= 2 * TENANTS
        assert stats.trace_replay_ops > 0
        assert stats.trace_replay_rate > 0.3
        assert stats.trace_ranges_prechecked > 0
        assert ipc.marshal_cached_calls > 0
        assert stats.patch_disk_writes >= 1
        assert stats.trace_invalidations == 0

        # The disabled arm never traced anything.
        stats = disabled[0].stats
        assert stats.traces_compiled == 0
        assert stats.trace_eligible_ops == 0
        assert stats.patch_disk_writes == 0

    def test_disk_cache_amortizes_across_servers(self, tmp_path):
        """A second server sharing the patch-cache directory — a fresh
        process in real life — patches nothing: its only miss is
        answered from disk."""
        cache_dir = str(tmp_path / "shared-cache")
        config = ServerConfig.traced(charge_patch_cycles=True,
                                     patch_cache_dir=cache_dir)

        first, _ = run_sharing_workload(config)
        second, _ = run_sharing_workload(config)

        assert first.stats.patch_disk_writes == 1
        assert first.stats.patch_disk_hits == 0
        assert second.stats.patch_disk_hits == 1
        assert second.stats.patch_cache_misses == 0
        # The disk hit is cheaper than the patch it replaced.
        assert (second.costs.patch_disk_lookup
                < second.costs.patch_module)
