"""Benchmark harness configuration.

Every module regenerates one table or figure of the paper's evaluation
(see DESIGN.md's per-experiment index). Conventions:

- each experiment runs inside ``benchmark.pedantic(..., rounds=1)`` so
  ``pytest benchmarks/ --benchmark-only`` both times it and executes
  the reproduction;
- each experiment *prints* the paper-style rows (captured with ``-s``)
  and *asserts* the paper's qualitative shape (who wins, rough
  factors) — absolute numbers are simulator numbers;
- scale knobs live here; the environment variable
  ``GUARDIAN_BENCH_FULL=1`` switches to the fuller (slower) sweeps.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.reporting import render_table
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.driver.fatbin import build_fatbin
from repro.gpu.device import Device
from repro.gpu.specs import QUADRO_RTX_A4000

from tests.conftest import make_guardian_tenant, saxpy_module

#: Fuller sweeps (all 16 mixes, more epochs) when set.
FULL = os.environ.get("GUARDIAN_BENCH_FULL", "") == "1"

#: Device-side block sampling for the big runs.
MAX_BLOCKS = 4

#: Mix samples/batch used by the sharing benchmarks (batch is large so
#: kernels are device-bound as in the paper; sampling keeps it fast).
MIX_SAMPLES = 16
MIX_BATCH = 16

#: Default shape of :func:`run_sharing_workload`.
SHARING_TENANTS = 6
SHARING_ITERATIONS = 40


def bench_dir() -> Path:
    """Where the run's ``BENCH_*`` files go: ``GUARDIAN_BENCH_DIR``
    (the CI jobs point it at their artifact upload path), or the
    gitignored ``bench-results/`` - never the checkout itself."""
    directory = Path(os.environ.get("GUARDIAN_BENCH_DIR", "bench-results"))
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def emit_bench_json(name: str, payload: dict) -> Path:
    """Write ``BENCH_<name>.json`` into :func:`bench_dir`. CI diffs
    the emitted numbers against ``benchmarks/bench_baseline.json`` via
    ``benchmarks/check_regression.py``.
    """
    path = bench_dir() / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def print_table(title: str, headers, rows) -> None:
    print()
    print(render_table(headers, rows, title=title))


def run_sharing_workload(config, tenants: int = SHARING_TENANTS,
                         iterations: int = SHARING_ITERATIONS,
                         sync_every: int = 10):
    """The fig7-style sharing workload of the hot-path, trace,
    telemetry and scaling benchmarks: ``tenants`` tenants ``t0``, ``t1``
    ... deploy the same library fatBIN, then iterate (h2d, h2d, launch),
    synchronising every ``sync_every`` iterations - a fixed loop the
    trace recorder sees as one stable sync-delimited block. Returns
    ``(server, clients)``."""
    device = Device(QUADRO_RTX_A4000)
    server = GuardianServer(device, FencingMode.BITWISE, config=config)

    deployed = []
    for index in range(tenants):
        client, _ = make_guardian_tenant(server, f"t{index}", 1 << 20)
        # Rebuilt per tenant on purpose: distinct FatBinary objects
        # with identical content exercise the content-addressed keys -
        # the multi-tenant same-library deployment pattern.
        handles = client.register_fatbin(
            build_fatbin(saxpy_module(), "libsaxpy", "11.7"))
        deployed.append((client, handles["saxpy"], client.malloc(512)))

    payload = np.ones(16, dtype=np.float32).tobytes()
    for iteration in range(iterations):
        for client, handle, buf in deployed:
            client.memcpy_h2d(buf, payload)
            client.memcpy_h2d(buf + 256, payload)
            client.launch_kernel(handle, (1, 1, 1), (16, 1, 1),
                                 [buf, buf + 256, 2.0, 16])
        if (iteration + 1) % sync_every == 0:
            for client, _, _ in deployed:
                client.synchronize()
    device.synchronize(spatial=True)
    return server, [client for client, _, _ in deployed]


def host_cycles(server, clients) -> float:
    """Modelled host work of a run: the server's busy clock plus every
    client's IPC critical path, the clients summed in list order."""
    return server.stats.cycles + sum(client.channel.stats.client_cycles
                                     for client in clients)


@pytest.fixture
def once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
