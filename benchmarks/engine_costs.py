"""``python -m benchmarks.engine_costs``: host costs of the kernel
engines on two kernels the benchmark workloads do not launch.

    python -m benchmarks.engine_costs [--repeat N] [--watchdog STEPS]

1. ``rodinia_pf_resample``, one 192-particle launch ((3,1,1) x
   (64,1,1), as ``ParticleFilterApp`` launches it) on a stock
   executor: the best process time of N launches, which engine ran
   the blocks, the warp cycles and the sha256 of the output. Run the
   script in two checkouts to compare trees: the last three must
   agree.
2. A hostile ``bar`` runaway: 32 threads store, meet at ``bar.sync``
   and spin, each on its own counter, until the watchdog kills the
   block, with the watchdog lowered to STEPS basic blocks per thread
   (the block engine's attempt budget scales with it). Timed per
   route, best of N: the stock executor (a block engine attempt, then
   the per-thread JIT's generator form), the JIT alone and the
   interpreter.

Times are ``time.process_time`` and read only relative to each other
on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import time
from unittest import mock

import numpy as np

from repro.errors import ExecutionError
from repro.gpu import blockgen, codegen
from repro.gpu.executor import KernelExecutor, compile_kernel
from repro.gpu.latency import CostModel
from repro.gpu.memory import DEVICE_BASE, GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000 as SPEC
from repro.ptx.ast import Immediate
from repro.ptx.builder import KernelBuilder
from repro.ptx.parser import parse_module
from repro.workloads.rodinia import rodinia_fatbin
from tests.conftest import forced_engine

PARTICLES = 192
OUT, CDF, POS = DEVICE_BASE, DEVICE_BASE + 4096, DEVICE_BASE + 8192


def resample_kernel():
    for entry in rodinia_fatbin().ptx_entries():
        kernels = parse_module(entry.ptx_text()).kernels
        if "rodinia_pf_resample" in kernels:
            return kernels["rodinia_pf_resample"]
    raise LookupError("rodinia_pf_resample")


def bar_spin_kernel():
    """out[tid] = tid; bar.sync; then an endless loop counting up
from tid (a lane vector on the block engine)."""
    b = KernelBuilder("bar_spin", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    b.st_global("u32", b.element_addr(out, tid, 4), tid)
    b.barrier()
    count = b.mov("u32", tid)
    spin = b.fresh_label("spin")
    b.label(spin)
    b.emit("add.u32", count, count, Immediate(1))
    b.bra(spin)
    return b.build()


def resample(repeat: int) -> dict:
    memory = GlobalMemory(1 << 16)
    rng = np.random.RandomState(14)
    weights = rng.rand(PARTICLES)
    memory.write_array(CDF, np.cumsum(weights / weights.sum()))
    memory.write_array(POS, rng.randn(PARTICLES))
    runner = KernelExecutor(SPEC, memory)
    compiled = compile_kernel(resample_kernel(), SPEC)
    params = [OUT, CDF, POS, 0.5 / PARTICLES, PARTICLES]
    grid, block = (PARTICLES // 64, 1, 1), (64, 1, 1)
    result = runner.launch(compiled, grid, block, params)  # code built
    best = float("inf")
    for _ in range(repeat):
        started = time.process_time()
        runner.launch(compiled, grid, block, params)
        best = min(best, time.process_time() - started)
    return {
        "ms_per_launch": round(best * 1e3, 2),
        "engine_blocks": dict(runner.engine_blocks),
        "total_warp_cycles": result.total_warp_cycles,
        "sha256": hashlib.sha256(
            memory.read(OUT, 4 * PARTICLES)).hexdigest()[:16],
    }


def runaway(route: str, watchdog: int, repeat: int) -> float:
    """Best process time, in ms, of a launch the watchdog ends."""
    compiled = compile_kernel(bar_spin_kernel(), SPEC)
    best = float("inf")
    with mock.patch.object(codegen, "MAX_BLOCK_STEPS", watchdog), \
            mock.patch.object(blockgen, "ATTEMPT_STEPS", watchdog >> 4), \
            forced_engine(route) as make:
        # Generated code embeds the watchdog: build it under the patch.
        codegen.kernel_code(compiled, CostModel(SPEC))
        for _ in range(repeat):
            runner = make(SPEC, GlobalMemory(1 << 16))
            started = time.process_time()
            try:
                runner.launch(compiled, (1, 1, 1), (32, 1, 1), [OUT])
            except ExecutionError:
                pass
            else:
                raise AssertionError("the watchdog did not end the kernel")
            best = min(best, time.process_time() - started)
    return round(best * 1e3, 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--watchdog", type=int, default=20_000)
    args = parser.parse_args(argv)
    print("rodinia_pf_resample:", resample(args.repeat))
    times = {route: runaway(route, args.watchdog, args.repeat)
             for route in ("stock", "jit", "interpreter")}
    print(f"bar runaway at {args.watchdog} steps (ms):", times,
          f"interpreter/jit {times['interpreter'] / times['jit']:.1f}x")


if __name__ == "__main__":
    main()
