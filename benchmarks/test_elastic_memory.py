"""Elastic memory under churn: stranded-capacity recovery (DESIGN.md §14).

Replays one seeded high-churn trace of mixed-size resident tenants
(``repro.loadgen.churn``) against the same small device twice — a
stock static-partitioning server, then one with the elastic engine on
(shrink + compaction + oversubscription) — and reports how many of the
offered sessions each arm admits. The static arm sheds newcomers its
free-but-fragmented bytes could in principle hold; the elastic arm
must admit at least ``MIN_GOODPUT_UPLIFT`` (1.25x) more sessions while
keeping its shed rate no worse — the gate ``check_regression.py``
holds against ``bench_baseline.json``.

The companion check pins the GPUArmor bar the whole engine is built
under: with every elastic knob on, the patched PTX is byte-identical
to stock and the per-access fence is still exactly two mask ops
(``and.b64`` + ``or.b64``) — dynamic base and mask live in the bounds
table and the launch parameters, never in the instruction stream.

The churn seed comes from ``GUARDIAN_LOAD_SEED`` (the CI load-smoke
job sweeps 0-2); every knob involved defaults off, so none of this
perturbs the stock path.
"""

from __future__ import annotations

import dataclasses
import os
import re

from repro.core.server import GuardianServer, ServerConfig
from repro.gpu.device import Device
from repro.gpu.specs import MIB, QUADRO_RTX_A4000
from repro.loadgen import ChurnConfig, run_churn
from repro.ptx.builder import build_module
from repro.ptx.emitter import emit_module

from benchmarks.conftest import FULL, emit_bench_json, print_table
from tests.conftest import saxpy_kernel

SEED = int(os.environ.get("GUARDIAN_LOAD_SEED", "2024"))

#: 16 MiB of partitionable space — small enough that the default
#: 120-session mixed-size churn genuinely fragments and overflows it.
SMALL = dataclasses.replace(QUADRO_RTX_A4000,
                            global_memory_bytes=17 * MIB)

SESSIONS = 240 if FULL else 120

#: The capacity-recovery gate (mirrored in bench_baseline.json):
#: elastic must admit >= 1.25x the static arm's sessions at a shed
#: rate no worse than the static arm's.
MIN_GOODPUT_UPLIFT = 1.25

#: GPUArmor bar: per-access fence is exactly two mask ops.
MASK_OPS_PER_ACCESS = 2


def churn_arm(config: ServerConfig):
    server = GuardianServer(Device(SMALL), config=config)
    report = run_churn(server, ChurnConfig(sessions=SESSIONS, seed=SEED))
    return server, report


def fence_mask_ops(config: ServerConfig) -> tuple[str, float]:
    """Patch the saxpy module and measure the per-access fence length
    in the emitted text: guardian ``and``/``or`` lines per
    instrumented site."""
    server = GuardianServer(Device(SMALL), config=config)
    ptx = emit_module(build_module([saxpy_kernel()]))
    ((patched, reports),), _ = server._patch_texts((ptx,))
    sites = sum(report.sites for report in reports)
    # The fence pair works on the injected guardian registers (%grd*):
    # AND with the mask param, OR with the base param.
    ops = len(re.findall(r"(?:and|or)\.b64.*%grd", patched))
    return patched, ops / sites


class TestElasticMemory:
    def test_churn_capacity_recovery(self, once):
        def arms():
            _, static = churn_arm(ServerConfig())
            _, elastic = churn_arm(ServerConfig.elastic())
            return static, elastic

        static, elastic = once(arms)
        uplift = (elastic.goodput_sessions / static.goodput_sessions
                  if static.goodput_sessions else float("inf"))

        rows = [
            [name, f"{r.admitted}/{r.offered}", f"{r.shed_rate:.3f}",
             f"{r.partitions_shrunk}", f"{r.tenants_compacted}",
             f"{r.swaps_out}/{r.swaps_in}",
             f"{r.bytes_reclaimed / MIB:.1f}",
             f"{r.touches_failed}", f"{r.server_cycles / 1e6:.2f}"]
            for name, r in (("static", static), ("elastic", elastic))
        ]
        print_table(
            f"Churn capacity recovery (seed {SEED}, {SESSIONS} "
            f"sessions, 16 MiB carve space, uplift {uplift:.2f}x)",
            ["arm", "admitted", "shed rate", "shrinks", "compactions",
             "swaps out/in", "MiB reclaimed", "failed touches",
             "Mcycles"],
            rows,
        )

        stock_text, stock_ops = fence_mask_ops(ServerConfig())
        elastic_text, elastic_ops = fence_mask_ops(
            ServerConfig.elastic())

        emit_bench_json("elastic_memory", {
            "seed": SEED,
            "sessions": SESSIONS,
            "carve_bytes": 16 * MIB,
            "static": {
                "admitted": static.admitted,
                "shed_rate": static.shed_rate,
                "server_mcycles": static.server_cycles / 1e6,
                "fragmentation_score": static.fragmentation_score,
            },
            "elastic": {
                "admitted": elastic.admitted,
                "shed_rate": elastic.shed_rate,
                "server_mcycles": elastic.server_cycles / 1e6,
                "partitions_shrunk": elastic.partitions_shrunk,
                "bytes_reclaimed": elastic.bytes_reclaimed,
                "tenants_compacted": elastic.tenants_compacted,
                "swaps_out": elastic.swaps_out,
                "swaps_in": elastic.swaps_in,
                "bytes_swapped": elastic.bytes_swapped,
                "touches_failed": elastic.touches_failed,
            },
            "goodput_uplift": uplift,
            "fence": {
                "mask_ops_per_access": elastic_ops,
                "patched_text_identical": stock_text == elastic_text,
            },
        })

        # The regime: the static arm genuinely sheds under this trace.
        assert static.shed > 0
        # Capacity recovery at equal-or-better shed-rate SLO.
        assert elastic.shed_rate <= static.shed_rate
        assert uplift >= MIN_GOODPUT_UPLIFT
        # No swapped tenant was ever lost to a failed revival.
        assert elastic.touches_failed == 0
        # GPUArmor bar, with every elastic knob on: same patched text,
        # still exactly two mask ops per instrumented access.
        assert stock_text == elastic_text
        assert stock_ops == elastic_ops == MASK_OPS_PER_ACCESS
