"""``python -m benchmarks.engine_costs``: host costs of the kernel
engines on kernels the benchmark workloads do not launch, and of the
block engine's commit.

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
3. The block engine's commit (the conflict test and the replay of a
   launch's logged accesses through the caches) in ns per logged
   access, best of N launches, on ``cublas_sgemm`` and the three
   convolutions at the shapes of ``mix_train``'s LeNet, and on a span
   whose loads lie 16 KiB apart (more lines of one L1 set than it has
   ways); with the commits that replayed in bulk and those that walked
   the tag lists access by access.

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
from repro.gpu import blockgen, blockrt, codegen
from repro.gpu.executor import KernelExecutor, compile_kernel
from repro.gpu.latency import CostModel
from repro.gpu.memory import DEVICE_BASE, GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000 as SPEC
from repro.libs.kernels import blas, dnn
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


#: The first convolution of the LeNet ``mix_train`` trains, batch 8:
#: n, cin, h, w, cout, kh, kw.
N, CIN, H, W, COUT, KH, KW = 8, 1, 12, 12, 4, 3, 3
OH, OW = H - KH + 1, W - KW + 1
#: Bytes between two lines of one L1 set: sets x line size.
SET_STRIDE = SPEC.l1_kb * 1024 // 8
#: Inputs, weights, outputs and the strided span's 16 lines.
X, WEIGHTS, Y, STRIDED = (DEVICE_BASE + (offset << 16)
                          for offset in range(4))


def set_stride_kernel():
    """out[gid] = inp[SET_STRIDE * (tid % 16)]: 16 lines of one L1
    set."""
    b = KernelBuilder("set_stride", params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    line = b.and_("b32", b.special("%tid.x"), Immediate(15))
    value = b.ld_global("f32", b.element_addr(b.load_param_ptr("inp"), line,
                                              SET_STRIDE))
    b.st_global("f32", b.element_addr(out, b.global_thread_id(), 4), value)
    return b.build()


def commit_launches() -> dict:
    """``name: (kernel, grid, block, params)``, as the libraries launch
    them (one thread per output element)."""
    def grid(threads, block):
        return (-(-threads // block), 1, 1), (block, 1, 1)

    conv = [N, CIN, H, W, COUT, KH, KW, OH, OW]
    m, n, k = N, 32, 128  # its first fully connected layer
    return {
        "cublas_sgemm": (blas.sgemm_strided_kernel(), *grid(m * n, 64),
                         [Y, X, WEIGHTS, m, n, k, k, 1, n, 1, 1.0, 0.0]),
        "cudnn_conv2d_fwd": (dnn.conv2d_forward_kernel(),
                             *grid(N * COUT * OH * OW, 128),
                             [Y, X, WEIGHTS, WEIGHTS + 8192] + conv),
        "cudnn_conv2d_bwd_data": (dnn.conv2d_bwd_data_kernel(),
                                  *grid(N * CIN * H * W, 128),
                                  [X, WEIGHTS, Y] + conv),
        "cudnn_conv2d_bwd_filter": (dnn.conv2d_bwd_filter_kernel(),
                                    *grid(COUT * CIN * KH * KW, 128),
                                    [WEIGHTS, X, Y] + conv),
        "set_overflow": (set_stride_kernel(), (4, 1, 1), (128, 1, 1),
                         [Y, STRIDED]),
    }


def commit_costs(repeat: int) -> dict:
    """Per launch of :func:`commit_launches`: the commit's best ns per
    logged access and how many commits replayed in bulk or walked (a
    span given up is not counted)."""
    costs = {}
    for name, (kernel, grid, block, params) in commit_launches().items():
        memory = GlobalMemory(1 << 20)
        rng = np.random.RandomState(48)
        memory.write_array(X, rng.randn(1 << 14).astype(np.float32))
        memory.write_array(WEIGHTS, rng.randn(1 << 14).astype(np.float32))
        memory.write_array(Y, rng.randn(1 << 14).astype(np.float32))
        spent = {"ns": 0, "logged": 0, "bulk": 0, "walk": 0}
        walks = []
        make_commit, thread_major = blockrt.make_commit, blockrt._thread_major

        def walked(*args):
            walks.append(1)
            return thread_major(*args)

        def timed_commit(*args):
            commit = make_commit(*args)

            def timed(run, *rest):
                before = len(walks)
                started = time.perf_counter_ns()
                cycles = commit(run, *rest)
                spent["ns"] += time.perf_counter_ns() - started
                spent["logged"] += run.logged
                spent["walk" if len(walks) > before else "bulk"] += 1
                return cycles

            return timed

        with mock.patch.object(blockrt, "make_commit", timed_commit), \
                mock.patch.object(blockrt, "_thread_major", walked):
            runner = KernelExecutor(SPEC, memory)
            compiled = compile_kernel(kernel, SPEC)
            runner.launch(compiled, grid, block, params)  # code built
            best = float("inf")
            for _ in range(repeat):
                spent.update(ns=0, logged=0, bulk=0, walk=0)
                runner.launch(compiled, grid, block, params)
                best = min(best, spent["ns"] / spent["logged"])
        costs[name] = {"ns_per_access": round(best, 1),
                       "logged": spent["logged"], "bulk": spent["bulk"],
                       "walk": spent["walk"]}
    return costs


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
    print(f"commit, best of {args.repeat} launches:")
    print(f"  {'kernel':24} {'ns/access':>9} {'accesses':>9} "
          f"{'bulk':>5} {'walk':>5}")
    for name, row in commit_costs(args.repeat).items():
        print(f"  {name:24} {row['ns_per_access']:9.1f} "
              f"{row['logged']:9d} {row['bulk']:5d} {row['walk']:5d}")


if __name__ == "__main__":
    main()
