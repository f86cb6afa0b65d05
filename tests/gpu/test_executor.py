"""Executor tests: functional semantics and cycle accounting."""

import resource
import time

import numpy as np
import pytest

from repro.errors import ExecutionError, LaunchError, MemoryFault
from repro.gpu.executor import (
    EFFECTIVE_WARPS_PER_SM,
    LAUNCH_OVERHEAD_CYCLES,
    compile_kernel,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.ast import Immediate
from repro.ptx.builder import KernelBuilder, build_module

from tests.conftest import (
    ENGINES,
    forced_engine,
    saxpy_kernel,
    writer_kernel,
)

SPEC = QUADRO_RTX_A4000
BASE = 0x7F_A000_0000_00


@pytest.fixture(params=ENGINES)
def executor_factory(request):
    """All three engines run every test in this module."""
    with forced_engine(request.param) as make:
        yield lambda memory: make(SPEC, memory)


def run_kernel(executor_factory, kernel, grid, block, params,
               setup=None, memory_bytes=1 << 22):
    memory = GlobalMemory(memory_bytes)
    if setup:
        setup(memory)
    executor = executor_factory(memory)
    compiled = compile_kernel(kernel, SPEC)
    result = executor.launch(compiled, grid, block, params)
    return memory, result


class TestFunctional:
    def test_saxpy(self, executor_factory):
        xs = np.arange(50, dtype=np.float32)
        ys = np.ones(50, dtype=np.float32)

        def setup(memory):
            memory.write_array(BASE, ys)
            memory.write_array(BASE + 4096, xs)

        memory, _ = run_kernel(
            executor_factory, saxpy_kernel(), (1, 1, 1), (64, 1, 1),
            [BASE, BASE + 4096, 3.0, 50], setup,
        )
        out = memory.read_array(BASE, 50)
        assert np.allclose(out, 3.0 * xs + 1.0)

    def test_boundary_guard_respected(self, executor_factory):
        """Threads past n must not write."""
        memory, _ = run_kernel(
            executor_factory, saxpy_kernel(), (1, 1, 1), (64, 1, 1),
            [BASE, BASE + 4096, 1.0, 10],
        )
        # Elements 10..63 of y stay zero.
        tail = memory.read_array(BASE + 40, 54)
        assert np.all(tail == 0.0)

    def test_multi_block_grid(self, executor_factory):
        n = 200

        def setup(memory):
            memory.write_array(BASE + 4096,
                               np.ones(n, dtype=np.float32))

        memory, result = run_kernel(
            executor_factory, saxpy_kernel(), (4, 1, 1), (64, 1, 1),
            [BASE, BASE + 4096, 2.0, n], setup,
        )
        assert np.allclose(memory.read_array(BASE, n), 2.0)
        assert result.threads == 256

    def test_wild_write_faults(self, executor_factory):
        """Unpatched kernels writing outside mapped memory fault — the
        simulator's Xid error."""
        with pytest.raises(MemoryFault):
            run_kernel(
                executor_factory, writer_kernel(), (1, 1, 1), (1, 1, 1),
                [BASE, 1 << 40, 7],
            )

    def test_misaligned_global_access_faults(self, executor_factory):
        """A global access off its natural alignment is a contained
        fault on every engine, not an engine-specific error."""
        with pytest.raises(MemoryFault, match="misaligned f32"):
            run_kernel(
                executor_factory, saxpy_kernel(), (1, 1, 1), (64, 1, 1),
                [BASE + 2, BASE + 4096, 3.0, 50],
            )

    def test_integer_ops(self, executor_factory):
        b = KernelBuilder("intops", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        v = b.mov("u32", Immediate(100))
        v = b.mul("u32", v, 7)            # 700
        v = b.div("u32", v, 3)            # 233
        v = b.rem("u32", v, 100)          # 33
        v = b.shl("b32", v, 2)            # 132
        v = b.xor("b32", v, Immediate(0xFF))  # 123
        b.st_global("u32", out, v)
        memory, _ = run_kernel(executor_factory, b.build(),
                               (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "u32") == (132 ^ 0xFF)

    def test_signed_arithmetic(self, executor_factory):
        b = KernelBuilder("signed", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        v = b.sub("s32", Immediate(3), Immediate(10))   # -7
        pred = b.setp("lt", "s32", v, Immediate(0))
        result = b.reg("u32")
        b.emit("selp.b32", result, Immediate(1), Immediate(0), pred)
        b.st_global("u32", out, result)
        memory, _ = run_kernel(executor_factory, b.build(),
                               (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "u32") == 1

    def test_sfu_functions(self, executor_factory):
        b = KernelBuilder("sfu", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        b.st_global("f32", out, b.unary("sqrt", "f32", Immediate(16.0)))
        b.st_global("f32", out, b.unary("ex2", "f32", Immediate(3.0)),
                    offset=4)
        b.st_global("f32", out, b.unary("rcp", "f32", Immediate(4.0)),
                    offset=8)
        memory, _ = run_kernel(executor_factory, b.build(),
                               (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "f32") == 4.0
        assert memory.load_scalar(BASE + 4, "f32") == 8.0
        assert memory.load_scalar(BASE + 8, "f32") == 0.25

    def test_shared_memory_and_barrier(self, executor_factory):
        """Block-wide reversal through shared memory requires a
        working barrier."""
        b = KernelBuilder("reverse", params=[("buf", "u64"), ("n", "u32")])
        tile = b.shared_array("tile", "f32", 64)
        buf = b.load_param_ptr("buf")
        n = b.load_param("n", "u32")
        tid = b.special("%tid.x")
        base = b.mov("u64", tile)
        my_slot = b.add("u64", base, b.cvt(
            "u64", "u32", b.mul("u32", tid, Immediate(4))))
        value = b.ld_global("f32", b.element_addr(buf, tid, 4))
        b.st_shared("f32", my_slot, value)
        b.barrier()
        reversed_index = b.sub("u32", b.sub("u32", n, Immediate(1)), tid)
        peer_slot = b.add("u64", base, b.cvt(
            "u64", "u32", b.mul("u32", reversed_index, Immediate(4))))
        peer = b.ld_shared("f32", peer_slot)
        b.st_global("f32", b.element_addr(buf, tid, 4), peer)

        def setup(memory):
            memory.write_array(BASE, np.arange(64, dtype=np.float32))

        memory, _ = run_kernel(executor_factory, b.build(),
                               (1, 1, 1), (64, 1, 1), [BASE, 64], setup)
        out = memory.read_array(BASE, 64)
        assert np.array_equal(out, np.arange(64, dtype=np.float32)[::-1])

    def test_atomic_add(self, executor_factory):
        b = KernelBuilder("atomic", params=[("ctr", "u64")])
        counter = b.load_param_ptr("ctr")
        b.atom_add_global("u32", counter, 1)
        memory, _ = run_kernel(executor_factory, b.build(),
                               (2, 1, 1), (32, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "u32") == 64

    def test_brx_dispatch(self, executor_factory):
        b = KernelBuilder("dispatch", params=[("out", "u64"),
                                              ("sel", "u32")])
        out = b.load_param_ptr("out")
        selector = b.load_param("sel", "u32")
        end = b.fresh_label("end")
        case0, case1 = b.fresh_label("c0"), b.fresh_label("c1")
        b.brx_idx(selector, [case0, case1])
        b.label(case0)
        b.st_global("u32", out, 100)
        b.bra(end)
        b.label(case1)
        b.st_global("u32", out, 200)
        b.label(end)
        memory, _ = run_kernel(executor_factory, b.build(),
                               (1, 1, 1), (1, 1, 1), [BASE, 1])
        assert memory.load_scalar(BASE, "u32") == 200

    def test_brx_out_of_range_raises(self, executor_factory):
        b = KernelBuilder("dispatch", params=[("sel", "u32")])
        selector = b.load_param("sel", "u32")
        only = b.fresh_label("only")
        b.brx_idx(selector, [only])
        b.label(only)
        with pytest.raises(ExecutionError):
            run_kernel(executor_factory, b.build(),
                       (1, 1, 1), (1, 1, 1), [5])

    def test_runaway_kernel_detected(self, executor_factory):
        b = KernelBuilder("spin", params=[])
        forever = b.fresh_label("forever")
        b.label(forever)
        b.bra(forever)
        with pytest.raises(ExecutionError, match="runaway"):
            run_kernel(executor_factory, b.build(),
                       (1, 1, 1), (1, 1, 1), [])

    @pytest.mark.parametrize("access", ["load", "store", "shared"])
    def test_runaway_kernel_with_memory_accesses_stays_bounded(self, access):
        """A tenant's infinite loop must cost the shared server a
        bounded amount of time and memory before the watchdog reports
        it: a block attempt logs every access it executes, so it has a
        budget. (Unbounded, this took 18-120 s and 1-12 GB.)"""
        b = KernelBuilder("spin", params=[("p", "u64")])
        pointer = b.load_param_ptr("p")
        buf = b.shared_array("buf", "u32", 64)
        total = b.mov("u32", 0)
        forever = b.fresh_label("forever")
        b.label(forever)
        if access == "load":
            b.emit("add.u32", total, total, b.ld_global("u32", pointer))
        elif access == "store":
            b.st_global("u32", pointer, total)
        else:
            b.emit("add.u32", total, total,
                   b.ld_shared("u32", b.mov("u32", buf)))
        b.bra(forever)
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        started = time.process_time()
        with forced_engine("block") as make, pytest.raises(
                ExecutionError, match="runaway"):
            run_kernel(lambda memory: make(SPEC, memory), b.build(),
                       (1, 1, 1), (256, 1, 1), [BASE])
        assert time.process_time() - started < 15  # 1-2 s, noisy box
        grown_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     - rss_before)
        assert grown_kib < 192 << 10


class TestLaunchValidation:
    def test_wrong_param_count(self, executor_factory):
        memory = GlobalMemory(1 << 20)
        executor = executor_factory(memory)
        compiled = compile_kernel(saxpy_kernel(), SPEC)
        with pytest.raises(LaunchError):
            executor.launch(compiled, (1, 1, 1), (32, 1, 1), [BASE])

    def test_oversized_block(self, executor_factory):
        memory = GlobalMemory(1 << 20)
        executor = executor_factory(memory)
        compiled = compile_kernel(saxpy_kernel(), SPEC)
        with pytest.raises(LaunchError):
            executor.launch(compiled, (1, 1, 1), (2048, 1, 1),
                            [BASE, BASE, 1.0, 1])

    def test_zero_grid(self, executor_factory):
        memory = GlobalMemory(1 << 20)
        executor = executor_factory(memory)
        compiled = compile_kernel(saxpy_kernel(), SPEC)
        with pytest.raises(LaunchError):
            executor.launch(compiled, (0, 1, 1), (32, 1, 1),
                            [BASE, BASE, 1.0, 1])


    @pytest.mark.parametrize("max_blocks", [0, -1])
    def test_max_blocks_below_one(self, executor_factory, max_blocks):
        memory = GlobalMemory(1 << 20)
        executor = executor_factory(memory)
        compiled = compile_kernel(saxpy_kernel(), SPEC)
        with pytest.raises(LaunchError, match=f"max_blocks.* {max_blocks}"):
            executor.launch(compiled, (2, 1, 1), (32, 1, 1),
                            [BASE, BASE, 1.0, 64], max_blocks=max_blocks)


class TestTiming:
    def test_duration_formula(self, executor_factory):
        _, result = run_kernel(
            executor_factory, saxpy_kernel(), (1, 1, 1), (32, 1, 1),
            [BASE, BASE + 4096, 1.0, 32],
        )
        parallelism = min(result.warps,
                          SPEC.num_sms * EFFECTIVE_WARPS_PER_SM)
        expected = (LAUNCH_OVERHEAD_CYCLES
                    + result.total_warp_cycles / parallelism)
        assert result.duration_cycles == pytest.approx(expected)

    def test_more_work_more_cycles(self, executor_factory):
        _, small = run_kernel(
            executor_factory, saxpy_kernel(), (1, 1, 1), (32, 1, 1),
            [BASE, BASE + 4096, 1.0, 32],
        )
        _, large = run_kernel(
            executor_factory, saxpy_kernel(), (8, 1, 1), (128, 1, 1),
            [BASE, BASE + 4096, 1.0, 1024],
        )
        assert large.total_warp_cycles > small.total_warp_cycles

    def test_sampled_execution_scales_counts(self, executor_factory):
        memory = GlobalMemory(1 << 22)
        memory.write_array(BASE + 4096,
                           np.ones(1024, dtype=np.float32))
        executor = executor_factory(memory)
        compiled = compile_kernel(saxpy_kernel(), SPEC)
        full = executor.launch(compiled, (8, 1, 1), (128, 1, 1),
                               [BASE, BASE + 4096, 1.0, 1024])
        executor2 = executor_factory(GlobalMemory(1 << 22))
        sampled = executor2.launch(compiled, (8, 1, 1), (128, 1, 1),
                                   [BASE, BASE + 4096, 1.0, 1024],
                                   max_blocks=2)
        assert sampled.sampled_fraction == pytest.approx(0.25)
        # Scaled instruction counts stay within 5% of the full run.
        assert sampled.instructions == pytest.approx(
            full.instructions, rel=0.05)
