"""Differential tests over the simulator's three engines.

Interpreter, per-thread JIT and block engine are *exactly* equal -
every byte, every error, every counter, every cache line - on library
kernels, divergent control flow, fenced kernels under attack, and
kernels that fault (where the block engine must hand the block back
and the same exception and the same partial memory state must come
out).

Random kernels come from the same builder-based strategy as the
round-trip property tests.
"""

import dataclasses
import json
import math
import os
import pathlib
import resource
import struct
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.patcher import PTXPatcher
from repro.core.policy import FencingMode
from repro.errors import ExecutionError, MemoryFault
from repro.gpu import blockgen, blockrt, codegen
from repro.gpu.blockgen import BlockCodegen, Unsupported
from repro.gpu import executor as gpu_executor
from repro.gpu.cache import MemoryHierarchy
from repro.gpu.executor import SPAN_LANES, compile_kernel
from repro.gpu.latency import CostModel
from repro.gpu.memory import PAGE_SIZE, GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.libs.kernels import blas, dnn, fft, rand as rand_kernels
from repro.ptx import isa
from repro.ptx.ast import (
    Guard,
    Immediate,
    Instruction,
    MemRef,
    SharedDecl,
    SpecialReg,
    TargetList,
)
from repro.ptx.builder import KernelBuilder, build_module
from repro.ptx.parser import parse_module
from repro.workloads.rodinia import rodinia_fatbin

from tests.conftest import (
    ENGINES,
    forced_engine,
    reader_kernel,
    saxpy_kernel,
    writer_kernel,
)
from tests.core.test_patch_semantics import MODES, PART_SIZE, extra_params
from tests.gpu.kernel_fuzz import may_go_non_finite, structured_kernel
from tests.ptx.test_roundtrip import random_straightline_kernel

SPEC = QUADRO_RTX_A4000
BASE = 0x7F_A000_0000_00
MEMORY_BYTES = 1 << 22

LIBRARY = build_module(
    blas.all_kernels() + dnn.all_kernels() + rand_kernels.all_kernels()
    + fft.all_kernels()
).kernels


class Outcome:
    """Everything observable about one launch on one engine."""

    def __init__(self, engine, kernel, grid, block, params, setup,
                 memory_bytes=MEMORY_BYTES, max_blocks=None, spec=SPEC):
        self.memory = GlobalMemory(memory_bytes)
        if setup:
            setup(self.memory)
        self.result = None
        self.error = None
        with forced_engine(engine) as make:
            self.executor = make(spec, self.memory)
            self.compiled = compile_kernel(kernel, spec)
            try:
                self.result = self.executor.launch(
                    self.compiled, grid, block, params, max_blocks)
            except Exception as error:  # compared, not swallowed
                self.error = error
        self.bytes = self.memory.read(BASE, memory_bytes)

    def cache_state(self):
        hierarchy = self.executor.hierarchy
        return [
            (cache.export_lines(0, 1 << 62), cache.stats.hits,
             cache.stats.misses)
            for cache in (hierarchy.l1, hierarchy.l2)
        ] + [dict(hierarchy.level_counts)]


def run_engines(kernel, grid, block, params, setup=None, engines=ENGINES,
                **kwargs):
    return {engine: Outcome(engine, kernel, grid, block, params, setup,
                            **kwargs)
            for engine in engines}


def assert_identical(jit, block):
    """Two engines' outcomes: nothing may differ."""
    assert type(jit.error) is type(block.error)
    assert str(jit.error) == str(block.error)
    assert jit.bytes == block.bytes
    assert jit.memory.resident_bytes == block.memory.resident_bytes
    if jit.error is None:
        for name in ("instructions", "loads", "stores",
                     "total_warp_cycles", "duration_cycles",
                     "level_counts", "threads", "warps"):
            assert getattr(jit.result, name) == getattr(block.result, name), name
    assert jit.cache_state() == block.cache_state()
    # Same types too: the counters are plain ints wherever they go.
    assert json.dumps(jit.cache_state()) == json.dumps(block.cache_state())


def assert_one_outcome(outcomes):
    """Every engine ``run_engines`` ran: nothing may differ."""
    first, *others = outcomes.values()
    for other in others:
        assert_identical(first, other)


def vectorised(outcome) -> bool:
    """Every block ran on the block engine, none was handed back."""
    counts = outcome.executor.engine_blocks
    return counts["block"] > 0 and counts["thread"] == 0


def spans(outcome) -> tuple:
    """``(block-function passes, spans rolled back)`` of a launch."""
    return outcome.executor.engine_passes, outcome.executor.span_bails


def library_setup(memory):
    rng = np.random.RandomState(7)
    memory.write_array(BASE + 65536, rng.randn(8192).astype(np.float32))
    memory.write_array(
        BASE + 131072, rng.randint(0, 5, 8192).astype(np.uint32),
        dtype="u32")
    memory.write_array(BASE + 262144, rng.randn(8192).astype(np.float32))
    memory.write_array(
        BASE + 196608, rng.permutation(8192).astype(np.uint32), dtype="u32")


OUT, F1, IDX, F2 = BASE, BASE + 65536, BASE + 131072, BASE + 262144
PERM = BASE + 196608  # distinct indices
CONV = [2, 2, 8, 8, 3, 3, 3, 6, 6]  # n cin h w cout kh kw oh ow

#: One launch of every ``.entry`` kernel the libraries ship; most with
#: a tail block (n % ntid != 0) and more than one block.
LIBRARY_LAUNCHES = {
    "cublas_saxpy": ((2, 1, 1), (64, 1, 1), [F2, F1, 2.0, 100]),
    "cublas_sscal": ((2, 1, 1), (64, 1, 1), [F1, 2.0, 100]),
    "cublas_scopy": ((2, 1, 1), (64, 1, 1), [OUT, F1, 128]),
    "cublas_sgemm": ((2, 1, 1), (64, 1, 1),
                     [OUT, F1, F2, 10, 12, 40, 40, 1, 12, 1, 1.0, 0.5]),
    "cublas_sgemm_tiled": ((2, 2, 1), (8, 8, 1),
                           [OUT, F1, F2, 13, 14, 20]),
    "cublas_isamax_partial": ((2, 1, 1), (64, 1, 1),
                              [OUT, OUT + 4096, F1, 90]),
    "cublas_sdot_partial": ((2, 1, 1), (64, 1, 1), [OUT, F1, F2, 100]),
    "cudnn_conv2d_fwd": ((3, 1, 1), (128, 1, 1),
                         [OUT, F1, F2, F2 + 4096] + CONV),
    "cudnn_conv2d_bwd_filter": ((1, 1, 1), (128, 1, 1),
                                [OUT, F1, F2] + CONV),
    "cudnn_conv2d_bwd_data": ((2, 1, 1), (128, 1, 1),
                              [OUT, F2, F1] + CONV),
    "cudnn_bias_grad": ((1, 1, 1), (128, 1, 1), [OUT, F1, 2, 3, 36]),
    "cudnn_maxpool_fwd": ((1, 1, 1), (128, 1, 1),
                          [OUT, OUT + 4096, F1, 4, 8, 8, 2]),
    "cudnn_maxpool_bwd": ((1, 1, 1), (128, 1, 1), [OUT, F1, PERM, 100]),
    "cudnn_relu_fwd": ((1, 1, 1), (128, 1, 1), [OUT, F1, 100]),
    "cudnn_relu_bwd": ((1, 1, 1), (128, 1, 1), [OUT, F1, F2, 100]),
    "cudnn_tanh_fwd": ((1, 1, 1), (128, 1, 1), [OUT, F1, 100]),
    "cudnn_add_bias": ((2, 1, 1), (64, 1, 1), [F1, F2, 9, 11]),
    "cudnn_softmax_xent": ((1, 1, 1), (32, 1, 1),
                           [OUT, OUT + 4096, OUT + 8192, F1, IDX,
                            8, 5, 0.125]),
    "cudnn_sgd_update": ((2, 1, 1), (64, 1, 1), [F1, F2, 0.05, 100]),
    "cudnn_add": ((2, 1, 1), (64, 1, 1), [OUT, F1, F2, 100]),
    "cudnn_fill": ((2, 1, 1), (64, 1, 1), [OUT, 1.5, 100]),
    "curand_uniform": ((2, 1, 1), (64, 1, 1), [OUT, 1234, 100]),
    "curand_normal": ((2, 1, 1), (64, 1, 1), [OUT, 1234, 0.0, 1.0, 100]),
    "cufft_dft": ((1, 1, 1), (64, 1, 1), [OUT, F1, 24, -1.0]),
    "cufft_scale": ((2, 1, 1), (64, 1, 1), [F1, 0.25, 100]),
}


class TestKnownKernels:
    def test_saxpy(self):
        def setup(memory):
            memory.write_array(BASE + 65536,
                               np.arange(100, dtype=np.float32))

        outcomes = run_engines(
            saxpy_kernel(), (2, 1, 1), (64, 1, 1),
            [BASE, BASE + 65536, 2.0, 100], setup,
        )
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])

    @pytest.mark.parametrize("kernel_name,grid,block,params", [
        ("cublas_sgemm", (1, 1, 1), (64, 1, 1),
         [BASE, BASE + 65536, BASE + 131072, 5, 6, 7, 7, 1, 6, 1,
          1.0, 0.0]),
        ("cublas_sdot_partial", (2, 1, 1), (64, 1, 1),
         [BASE, BASE + 65536, BASE + 131072, 100]),
        ("cublas_isamax_partial", (2, 1, 1), (64, 1, 1),
         [BASE, BASE + 4096, BASE + 65536, 90]),
        ("cudnn_relu_fwd", (1, 1, 1), (128, 1, 1),
         [BASE, BASE + 65536, 100]),
        ("cudnn_softmax_xent", (1, 1, 1), (32, 1, 1),
         [BASE, BASE + 4096, BASE + 8192, BASE + 65536,
          BASE + 131072, 8, 5, 0.125]),
        ("curand_normal", (1, 1, 1), (64, 1, 1),
         [BASE, 1234, 0.0, 1.0, 64]),
    ])
    def test_library_kernels(self, kernel_name, grid, block, params):
        outcomes = run_engines(LIBRARY[kernel_name], grid, block, params,
                               library_setup)
        assert_one_outcome(outcomes)

    def test_every_entry_kernel_has_a_launch(self):
        entries = {name for name, kernel in LIBRARY.items()
                   if kernel.is_entry}
        assert entries == set(LIBRARY_LAUNCHES)

    @pytest.mark.parametrize("kernel_name", sorted(LIBRARY_LAUNCHES))
    def test_every_library_kernel(self, kernel_name):
        grid, block, params = LIBRARY_LAUNCHES[kernel_name]
        outcomes = run_engines(LIBRARY[kernel_name], grid, block, params,
                               library_setup)
        assert_one_outcome(outcomes)
        # The whole library is admitted and nothing is handed back:
        # equality above is the block engine's own work.
        assert vectorised(outcomes["block"])

    def test_maxpool_bwd_scatters_through_loaded_indices(self):
        """Indices with repeats make two threads store one address:
        the block engine must notice and hand the block back."""
        outcomes = run_engines(
            LIBRARY["cudnn_maxpool_bwd"], (1, 1, 1), (128, 1, 1),
            [OUT, F1, IDX, 100], library_setup, engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        assert outcomes["block"].executor.engine_blocks["fallback"] == 1


def block_linear_id(b):
    """``(tid.z * ntid.y + tid.y) * ntid.x + tid.x``"""
    x, y, z = (b.special(f"%tid.{axis}") for axis in "xyz")
    return b.mad_lo("u32", b.mad_lo("u32", z, b.special("%ntid.y"), y),
                    b.special("%ntid.x"), x)


def collatz_kernel(in_block=False):
    """out[i] = steps of the 3n+1 walk from in[i]: a loop whose trip
    count depends on the data, so lanes leave it one by one. ``i`` is
    the global thread id, or with ``in_block`` the thread's linear id
    in its block over all three axes."""
    b = KernelBuilder("collatz", params=[
        ("out", "u64"), ("inp", "u64"), ("n", "u32"),
    ])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    n = b.load_param("n", "u32")
    gid = block_linear_id(b) if in_block else b.global_thread_id()
    with b.if_less_than(gid, n):
        value = b.ld_global("u32", b.element_addr(inp, gid, 4))
        steps = b.mov("u32", Immediate(0))
        head = b.fresh_label("walk")
        done = b.fresh_label("done")
        odd_path = b.fresh_label("odd")
        join = b.fresh_label("join")
        b.label(head)
        b.bra(done, guard_reg=b.setp("le", "u32", value, Immediate(1)))
        is_odd = b.setp("eq", "u32",
                        b.and_("b32", value, Immediate(1)), Immediate(1))
        b.bra(odd_path, guard_reg=is_odd)
        b.emit("mov.u32", value, b.shr("u32", value, Immediate(1)))
        b.bra(join)
        b.label(odd_path)
        b.emit("mov.u32", value,
               b.mad_lo("u32", value, Immediate(3), Immediate(1)))
        b.label(join)
        b.emit("mov.u32", steps, b.add("u32", steps, Immediate(1)))
        b.bra(head)
        b.label(done)
        b.st_global("u32", b.element_addr(out, gid, 4), steps)
    return b.build()


def predicated_kernel():
    """Guarded non-branch instructions: @p st / @!p mov."""
    b = KernelBuilder("predicated", params=[("out", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    even = b.setp("eq", "u32", b.and_("b32", gid, Immediate(1)),
                  Immediate(0))
    inside = b.setp("lt", "u32", gid, n)
    value = b.mov("u32", Immediate(7))
    b.emit("mov.u32", value, gid, guard=Guard(even.name, negated=True))
    b.emit("st.global.u32", MemRef(b.element_addr(out, gid, 4)), value,
           guard=Guard(inside.name))
    return b.build()


class TestControlFlow:
    def test_data_dependent_divergent_loop(self):
        def setup(memory):
            memory.write_array(
                BASE + 65536,
                np.arange(1, 201, dtype=np.uint32) * 7 % 97, dtype="u32")

        outcomes = run_engines(
            collatz_kernel(), (2, 1, 1), (96, 1, 1),
            [BASE, BASE + 65536, 150], setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        steps = outcomes["block"].memory.read_array(BASE, 4, dtype="u32")
        assert list(steps) == [16, 17, 7, 18]  # walks from 7, 14, 21, 28

    def test_tail_block_retires_idle_lanes(self):
        """n % ntid != 0 and a second grid dimension."""
        outcomes = run_engines(
            LIBRARY["cublas_sgemm"], (3, 1, 1), (64, 1, 1),
            [OUT, F1, F2, 13, 11, 9, 9, 1, 11, 1, 0.5, 2.0],
            library_setup, engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        assert vectorised(outcomes["block"])

    def test_predicated_instructions(self):
        outcomes = run_engines(predicated_kernel(), (1, 1, 1), (64, 1, 1),
                               [BASE, 50])
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        out = outcomes["block"].memory.read_array(BASE, 64, dtype="u32")
        expected = [7 if i % 2 == 0 else i for i in range(50)] + [0] * 14
        assert list(out) == expected

    def test_multidimensional_block(self):
        outcomes = run_engines(
            LIBRARY["cublas_sgemm_tiled"], (3, 2, 1), (8, 8, 1),
            [OUT, F1, F2, 15, 17, 24], library_setup,
            engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        assert vectorised(outcomes["block"])


class TestRandomKernels:
    @given(random_straightline_kernel())
    @settings(max_examples=25, deadline=None)
    def test_random_kernels_agree(self, module):
        kernel = module.kernels["rk"]
        outcomes = run_engines(kernel, (1, 1, 1), (32, 1, 1),
                               [BASE, 32, 1.5], memory_bytes=4096)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])

    @given(random_straightline_kernel())
    @settings(max_examples=15, deadline=None)
    def test_random_kernels_tail_block(self, module):
        outcomes = run_engines(
            module.kernels["rk"], (2, 1, 1), (48, 1, 1), [BASE, 70, -2.5],
            memory_bytes=4096, engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])


def finite_run(kernel, outcome) -> bool:
    """No error, no inf or NaN stored, and none possible on the way."""
    stored = np.frombuffer(outcome.bytes, dtype=np.float32)
    return (outcome.error is None and np.isfinite(stored).all()
            and not may_go_non_finite(kernel))


class TestStructuredRandomKernels:
    """Loops, nested divergence, early retirement, predication,
    barriers, signed/64-bit arithmetic (see kernel_fuzz)."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_structured_kernels_are_identical(self, rng):
        kernel = structured_kernel(rng)
        threads = rng.choice([32, 48, 64, 96])
        blocks = rng.choice([1, 2, 3])
        count = rng.randrange(1, threads * blocks + 1)
        outcomes = run_engines(
            kernel, (blocks, 1, 1), (threads, 1, 1),
            [BASE + (1 << 20), F1, count, rng.uniform(-2, 2),
             rng.getrandbits(64)],
            library_setup, engines=("jit", "block"))
        jit, block = outcomes["jit"], outcomes["block"]
        assert_identical(jit, block)
        # Admitted and carried through - a block handed back would make
        # the comparison above vacuous - unless the draw made an inf or
        # NaN, which Python and numpy report differently by design.
        if finite_run(kernel, jit):
            assert vectorised(block)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_structured_kernels_match_the_interpreter(self, rng):
        kernel = structured_kernel(rng)
        outcomes = run_engines(
            kernel, (2, 1, 1), (32, 1, 1),
            [BASE + (1 << 20), F1, 50, 0.75, rng.getrandbits(62)],
            library_setup, engines=("interpreter", "jit"))
        assert_one_outcome(outcomes)


VICTIM = BASE + PART_SIZE


def fenced(kernel, mode):
    return PTXPatcher(mode).patch_kernel(kernel)[0]


class TestFencedKernels:
    """The fence is ordinary and/or/rem/setp code: it vectorises with
    the rest, and an attack lands where the paper says it lands."""

    @staticmethod
    def _victim_setup(memory):
        memory.write(VICTIM, b"\x33" * 4096)
        memory.write_array(BASE + 8192, np.arange(64, dtype=np.float32))

    def _writer_out_of_partition(self, mode, blocks):
        offset = PART_SIZE + 1024  # aimed into the victim partition
        outcomes = run_engines(
            fenced(writer_kernel(), mode), (blocks, 1, 1), (64, 1, 1),
            [BASE, offset, 0xF00D] + extra_params(mode),
            self._victim_setup, memory_bytes=1 << 24,
            engines=("jit", "block"))
        jit, block = outcomes["jit"], outcomes["block"]
        assert_identical(jit, block)
        memory = block.memory
        assert memory.read(VICTIM, 4096) == b"\x33" * 4096
        wrapped = memory.load_scalar(BASE + 1024, "u32")
        if mode is FencingMode.CHECKING:
            assert wrapped == 0  # suppressed
        else:
            assert wrapped == 0xF00D  # wrapped inside the offender
        return block

    def _saxpy_out_of_partition(self, mode, blocks):
        """y aimed at the victim: every lane's load and store wraps."""
        outcomes = run_engines(
            fenced(saxpy_kernel(), mode), (blocks, 1, 1), (64, 1, 1),
            [VICTIM + 256, BASE + 8192, 2.0, 100] + extra_params(mode),
            self._victim_setup, memory_bytes=1 << 24,
            engines=("jit", "block"))
        jit, block = outcomes["jit"], outcomes["block"]
        assert_identical(jit, block)
        assert vectorised(block)
        assert block.memory.read(VICTIM, 4096) == b"\x33" * 4096
        landed = block.memory.read_array(BASE + 256, 64)
        if mode is FencingMode.CHECKING:
            assert not landed.any()
        else:
            assert np.array_equal(
                landed, 2.0 * np.arange(64, dtype=np.float32))
        return block

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_writer_out_of_partition(self, mode):
        self._writer_out_of_partition(mode, 1)

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_saxpy_out_of_partition(self, mode):
        self._saxpy_out_of_partition(mode, 2)

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_attacks_across_a_span(self, mode):
        """The same two attacks on a 4-block grid. The saxpy is one
        span, every lane of every block through every mask op; the
        writer's blocks all store one cell, so its span is given up
        and the blocks land one after the other as on the JIT."""
        block = self._saxpy_out_of_partition(mode, 4)
        assert spans(block) == (1, 0)
        block = self._writer_out_of_partition(mode, 4)
        if mode is FencingMode.CHECKING:
            assert spans(block) == (1, 0)  # nothing is stored
        else:
            assert spans(block) == (5, 1)

    @pytest.mark.parametrize("mode", MODES, ids=lambda mode: mode.value)
    def test_legal_saxpy_vectorises(self, mode):
        outcomes = run_engines(
            fenced(saxpy_kernel(), mode), (2, 1, 1), (64, 1, 1),
            [BASE, BASE + 8192, 2.0, 64] + extra_params(mode),
            self._victim_setup, memory_bytes=1 << 24)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])


def neighbour_kernel():
    """out[i] = in[i]; then out[i] += out[i + 1] with no barrier: in
    thread order lane i still reads lane i+1's *first* store."""
    b = KernelBuilder("neighbour", params=[("buf", "u64"), ("n", "u32")])
    buf = b.load_param_ptr("buf")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    with b.if_less_than(gid, n):
        mine = b.element_addr(buf, gid, 4)
        b.st_global("u32", mine, b.add("u32", gid, Immediate(100)))
        right = b.ld_global("u32", mine, offset=4)
        b.st_global("u32", mine, b.add("u32", right, Immediate(1)))
    return b.build()


def overflow_kernel(shared):
    """out[tid] = (tid - 32) * 1e41 as f32, through shared memory if
    ``shared``."""
    b = KernelBuilder("overflow", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    big = b.mul("f32", b.cvt("f32", "s32", b.sub("s32", tid, Immediate(32))),
                Immediate(1e38))
    big = b.mul("f32", big, Immediate(1e3))
    if shared:
        tile = b.mov("u64", b.shared_array("tile", "f32", 64))
        b.st_shared("f32", b.element_addr(tile, tid, 4), big)
        big = b.ld_shared("f32", b.element_addr(tile, tid, 4))
    b.st_global("f32", b.element_addr(out, tid, 4), big)
    return b.build()


class TestFaultsAndFallback:
    """What the block engine cannot reproduce, it must not attempt to:
    the per-thread JIT re-runs the block and owns the outcome."""

    def test_misaligned_access(self):
        outcomes = run_engines(
            saxpy_kernel(), (2, 1, 1), (64, 1, 1),
            [BASE + 2, BASE + 65536, 2.0, 100],
            engines=ENGINES)
        assert isinstance(outcomes["interpreter"].error, MemoryFault)
        assert "misaligned f32" in str(outcomes["interpreter"].error)
        assert_one_outcome(outcomes)

    def test_unmapped_store_mid_block(self):
        """Lanes 0..39 store inside the mapping, lane 40 is the first
        outside: the stores of the lanes before it must persist and
        nothing after it may."""
        end = BASE + MEMORY_BYTES
        outcomes = run_engines(
            saxpy_kernel(), (1, 1, 1), (64, 1, 1),
            [end - 160, BASE + 65536, 2.0, 64], library_setup,
            engines=("jit", "block"))
        jit, block = outcomes["jit"], outcomes["block"]
        assert isinstance(jit.error, MemoryFault)
        assert_identical(jit, block)
        written = block.memory.read_array(end - 160, 40)
        assert written.all()  # 2 * randn, never exactly 0

    def test_unmapped_native_store(self):
        outcomes = run_engines(
            writer_kernel(), (1, 1, 1), (64, 1, 1), [BASE, 1 << 40, 7],
            engines=("jit", "block"))
        assert isinstance(outcomes["jit"].error, MemoryFault)
        assert_identical(outcomes["jit"], outcomes["block"])

    def test_cross_thread_store_to_load_in_one_phase(self):
        outcomes = run_engines(
            neighbour_kernel(), (1, 1, 1), (64, 1, 1), [BASE, 64])
        assert_one_outcome(outcomes)
        counts = outcomes["block"].executor.engine_blocks
        assert counts == {"block": 0, "thread": 1, "fallback": 1}
        out = outcomes["block"].memory.read_array(BASE, 64, dtype="u32")
        # Lane i ran after lanes < i and before lane i+1 stored at all.
        assert list(out[:63]) == [1] * 63

    def test_all_lanes_store_one_address(self):
        """reader: every lane writes out[0]; the last thread wins."""
        def setup(memory):
            memory.write_array(
                BASE + 4096, np.arange(64, dtype=np.uint32), dtype="u32")

        outcomes = run_engines(
            reader_kernel(), (1, 1, 1), (64, 1, 1),
            [BASE, BASE + 4096, 8], setup, engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        assert outcomes["block"].memory.load_scalar(BASE, "u32") == 2

    def test_f32_store_overflow(self):
        """A double too large for f32 stores what f32 rounding gives,
        infinity of its sign (struct.pack refuses it)."""
        self.assert_stores_infinities(overflow_kernel(shared=False))

    def test_f32_shared_store_overflow(self):
        self.assert_stores_infinities(overflow_kernel(shared=True))

    @staticmethod
    def assert_stores_infinities(kernel):
        outcomes = run_engines(kernel, (1, 1, 1), (64, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        assert outcomes["jit"].error is None
        assert vectorised(outcomes["block"])
        stored = outcomes["jit"].memory.read_array(BASE, 64)
        assert list(stored) == [-math.inf] * 32 + [0.0] + [math.inf] * 31

    def test_engine_bugs_propagate(self):
        """Only the expected ways out of an attempt fall back; a
        programming error in the engine must not hide as a slow
        launch."""
        with mock.patch.object(blockrt, "_phase_stores",
                               side_effect=TypeError("engine bug")):
            outcome = Outcome("block", saxpy_kernel(), (1, 1, 1),
                              (64, 1, 1), [BASE, BASE + 65536, 2.0, 64],
                              library_setup)
        assert isinstance(outcome.error, TypeError)
        assert outcome.executor.engine_blocks["fallback"] == 0

    def test_barrier_under_divergence(self):
        """Threads below 8 store to shared memory, meet at a barrier the
        others never reach, read a neighbour's slot and store it; then
        every thread stores past the join. The block engine parks that
        group at the barrier and releases it, with no fallback."""
        b = KernelBuilder("divergent_bar", params=[("out", "u64")])
        tile = b.mov("u64", b.shared_array("tile", "u32", 8))
        out = b.load_param_ptr("out")
        tid = b.special("%tid.x")
        with b.if_less_than(tid, Immediate(8)):
            b.st_shared("u32", b.element_addr(tile, tid, 4),
                        b.add("u32", tid, Immediate(100)))
            b.barrier()
            other = b.and_("b32", b.add("u32", tid, Immediate(1)),
                           Immediate(7))
            b.st_global("u32", b.element_addr(out, tid, 4),
                        b.ld_shared("u32", b.element_addr(tile, other, 4)))
        b.st_global("u32", b.element_addr(
            out, b.add("u32", tid, Immediate(64)), 4), tid)
        released = []
        release = blockrt.BlockRun.release

        def spy(run):
            released.append(release(run))
            return released[-1]

        with mock.patch.object(blockrt.BlockRun, "park", autospec=True,
                               side_effect=blockrt.BlockRun.park) as park, \
                mock.patch.object(blockrt.BlockRun, "release", spy):
            outcomes = run_engines(b.build(), (1, 1, 1), (64, 1, 1),
                                   [BASE])
        assert_one_outcome(outcomes)
        assert outcomes["block"].executor.engine_blocks == {
            "block": 1, "thread": 0, "fallback": 0}
        assert park.call_count == 1
        assert released.count(True) == 1
        out = outcomes["block"].memory.read_array(BASE, 128, dtype="u32")
        assert list(out[:8]) == [100 + (tid + 1) % 8 for tid in range(8)]
        assert not out[8:64].any()
        assert list(out[64:]) == list(range(64))

    def test_statically_unsupported_kernels_stay_on_the_jit(self):
        b = KernelBuilder("atomic", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        b.atom_add_global("u32", out, Immediate(1))
        outcomes = run_engines(b.build(), (1, 1, 1), (64, 1, 1), [BASE],
                               engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        counts = outcomes["block"].executor.engine_blocks
        assert counts == {"block": 0, "thread": 1, "fallback": 0}
        assert outcomes["block"].memory.load_scalar(BASE, "u32") == 64
        assert "atom" in outcomes["block"].compiled.code.block_unsupported_reason


# --------------------------------------------------------------------------
# Grid spans: several blocks of a launch in one pass
# --------------------------------------------------------------------------


def spannable(kernel) -> bool:
    return not any(
        isinstance(statement, SharedDecl)
        or (isinstance(statement, Instruction)
            and (statement.base_op == "bar" or statement.space == "shared"))
        for statement in kernel.body)


def multi_block(launch):
    """A library launch as a grid of several blocks: one-block launches
    (all 1-D, indexed by global thread id) are cut into four."""
    grid, block, params = launch
    if grid == (1, 1, 1):
        assert block[1:] == (1, 1) and block[0] % 4 == 0
        grid, block = (4, 1, 1), (block[0] // 4, 1, 1)
    return grid, block, params


def where_kernel():
    """out[global linear thread] = ctaid.x | ctaid.y << 8 | ctaid.z <<
    16 | tid.x << 24: reads every ``%ctaid`` and ``%nctaid`` axis."""
    b = KernelBuilder("where", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    x, y, z = (b.special(f"%ctaid.{axis}") for axis in "xyz")
    tid = b.special("%tid.x")
    linear = b.mad_lo(
        "u32", b.mad_lo("u32", z, b.special("%nctaid.y"), y),
        b.special("%nctaid.x"), x)
    slot = b.mad_lo("u32", linear, b.special("%ntid.x"), tid)
    value = b.or_("b32", b.or_("b32", x, b.shl("b32", y, Immediate(8))),
                  b.or_("b32", b.shl("b32", z, Immediate(16)),
                        b.shl("b32", tid, Immediate(24))))
    b.st_global("u32", b.element_addr(out, slot, 4), value)
    return b.build()


def chain_kernel():
    """buf[gid] = buf[gid - ntid] + 1 for every block but the first:
    block i+1 loads what block i stored, no thread of a block touches
    another's cell."""
    b = KernelBuilder("chain", params=[("buf", "u64")])
    buf = b.load_param_ptr("buf")
    ctaid = b.special("%ctaid.x")
    ntid = b.special("%ntid.x")
    gid = b.global_thread_id()
    value = b.mov("u32", Immediate(0))
    first = b.fresh_label("first")
    b.bra(first, guard_reg=b.setp("eq", "u32", ctaid, Immediate(0)))
    before = b.ld_global("u32", b.element_addr(buf, b.sub("u32", gid, ntid),
                                               4))
    b.emit("mov.u32", value, before)
    b.label(first)
    b.st_global("u32", b.element_addr(buf, gid, 4),
                b.add("u32", value, Immediate(1)))
    return b.build()


def stamp_kernel():
    """out[tid] = ctaid + 1: every block stores the same cells."""
    b = KernelBuilder("stamp", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4),
                b.add("u32", b.special("%ctaid.x"), Immediate(1)))
    return b.build()


def trouble_kernel(kind):
    """out[gid] = gid + 1, with block 2 doing what ``kind`` says: its
    lanes from 40 on store past the mapping (``bad`` is the distance
    to it), store two bytes off, or its lanes divide by zero."""
    b = KernelBuilder(f"trouble_{kind}", params=[("out", "u64"),
                                                 ("bad", "u32")])
    out = b.load_param_ptr("out")
    bad = b.load_param("bad", "u32")
    gid = b.global_thread_id()
    in_block_2 = b.setp("eq", "u32", b.special("%ctaid.x"), Immediate(2))
    address = b.element_addr(out, gid, 4)
    if kind == "division":
        divisor = b.reg("u32")
        b.emit("selp.b32", divisor, Immediate(0), Immediate(1), in_block_2)
        b.st_global("u32", address,
                    b.div("u32", b.add("u32", gid, Immediate(1)), divisor))
        return b.build()
    late = b.setp("ge", "u32", b.special("%tid.x"), Immediate(40))
    hit = b.reg("pred")
    b.emit("and.pred", hit, in_block_2, late)
    skew = b.reg("u32")
    b.emit("selp.b32", skew, bad, Immediate(0), hit)
    b.st_global("u32", b.add("s64", address, b.cvt("u64", "u32", skew)),
                b.add("u32", gid, Immediate(1)))
    return b.build()


def spin_kernel(access):
    """``top: [ld.global;] add; bra top``"""
    b = KernelBuilder(f"spin_{access}", params=[("p", "u64")])
    pointer = b.load_param_ptr("p")
    total = b.mov("u32", 0)
    forever = b.fresh_label("forever")
    b.label(forever)
    b.emit("add.u32", total, total,
           b.ld_global("u32", pointer) if access == "load" else Immediate(1))
    b.bra(forever)
    return b.build()


class TestGridSpans:
    """A kernel without ``.shared`` and ``bar`` runs several blocks of
    a launch in one pass of its block function. Nothing observable may
    tell: bytes, counters, cycles and cache lines are the per-thread
    JIT's, and whatever lockstep across blocks cannot reproduce is
    rolled back and re-run block by block."""

    @pytest.mark.parametrize("kernel_name", sorted(LIBRARY_LAUNCHES))
    def test_every_library_kernel_on_a_multi_block_grid(self, kernel_name):
        kernel = LIBRARY[kernel_name]
        grid, block, params = multi_block(LIBRARY_LAUNCHES[kernel_name])
        blocks = grid[0] * grid[1] * grid[2]
        assert blocks > 1
        outcomes = run_engines(kernel, grid, block, params, library_setup)
        assert_one_outcome(outcomes)
        counts = outcomes["block"].executor.engine_blocks
        assert counts == {"block": blocks, "thread": 0, "fallback": 0}
        # One pass for the whole grid, or one per block where shared
        # memory or a barrier ties a thread to its block.
        expected = 1 if spannable(kernel) else blocks
        assert spans(outcomes["block"]) == (expected, 0)
        assert outcomes["block"].compiled.code.spannable == spannable(kernel)

    @pytest.mark.parametrize("grid", [(3, 4, 1), (3, 2, 2), (1, 5, 1),
                                      (2, 1, 3)])
    def test_ctaid_is_a_lane_value_on_every_axis(self, grid):
        outcomes = run_engines(where_kernel(), grid, (32, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        assert spans(outcomes["block"]) == (1, 0)
        gx, gy, gz = grid
        out = outcomes["block"].memory.read_array(
            BASE, 32 * gx * gy * gz, dtype="u32").reshape(gz, gy, gx, 32)
        z, y, x, tid = np.indices(out.shape)
        assert np.array_equal(out, x | y << 8 | z << 16 | tid << 24)

    @pytest.mark.parametrize("threads", [48, 80])
    def test_warp_boundary_inside_a_span(self, threads):
        """A block that is not a multiple of 32 ends in a short warp;
        the next block's first warp must not absorb its lanes (the
        walks differ per lane, so a wrong warp maximum would show)."""
        def setup(memory):
            memory.write_array(
                BASE + 65536,
                np.arange(1, 401, dtype=np.uint32) * 7 % 97, dtype="u32")

        outcomes = run_engines(
            collatz_kernel(), (5, 1, 1), (threads, 1, 1),
            [BASE, BASE + 65536, 5 * threads - 9], setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)

    @pytest.mark.parametrize("chunk,sorts", [(1, 5), (150, 2), (1 << 14, 1)])
    def test_divergent_commit_is_sorted_a_few_blocks_at_a_time(
            self, chunk, sorts):
        """Accesses made under a mask are put in thread order by a
        sort when the span is replayed access by access; a span sorts
        about ``COMMIT_CHUNK`` of them at once, cut between blocks, so
        its commit needs the memory a block's did. The loads lie 16 KiB
        apart, so all 240 lines map to one L1 set and the commit walks
        the tag lists."""
        b = KernelBuilder("odd_store", params=[("out", "u64"),
                                               ("inp", "u64")])
        out = b.load_param_ptr("out")
        inp = b.load_param_ptr("inp")
        gid = b.global_thread_id()
        value = b.ld_global("u32", b.element_addr(inp, gid, 16384))
        odd = b.setp("eq", "u32", b.and_("b32", gid, Immediate(1)),
                     Immediate(1))
        b.emit("st.global.u32", MemRef(b.element_addr(out, gid, 4)), value,
               guard=Guard(odd.name))

        parts_sorted = []
        split_at = blockrt._split_at

        def spy(entries, bounds):
            parts = list(split_at(entries, bounds))
            parts_sorted.append(len(parts))
            return parts

        # 5 x (48 loads + 24 stores) = 360 logged accesses.
        launch = (b.build(), (5, 1, 1), (48, 1, 1), [BASE, IDX],
                  library_setup)
        jit = Outcome("jit", *launch)
        with mock.patch.object(blockrt, "COMMIT_CHUNK", chunk), \
                mock.patch.object(blockrt, "_split_at", spy):
            block = Outcome("block", *launch)
        assert_identical(jit, block)
        assert spans(block) == (1, 0)
        assert parts_sorted == [sorts]

    @pytest.mark.parametrize("count", [200, 100, 1])
    def test_tail_blocks_retire_their_idle_lanes(self, count):
        """n = 200: the last block keeps 8 lanes; 100: two blocks are
        idle altogether; 1: one lane of the whole span survives."""
        outcomes = run_engines(
            saxpy_kernel(), (4, 1, 1), (64, 1, 1),
            [F2, F1, 2.0, count], library_setup)
        assert_one_outcome(outcomes)
        assert spans(outcomes["block"]) == (1, 0)

    def test_sampled_blocks_share_a_span(self):
        """``max_blocks`` picks blocks 0, 4, 8, 12 of 16: %ctaid is
        whatever the selected blocks say, not a range."""
        outcomes = run_engines(
            LIBRARY["cublas_sgemm"], (16, 1, 1), (64, 1, 1),
            [OUT, F1, F2, 32, 30, 9, 9, 1, 30, 1, 0.5, 2.0],
            library_setup, max_blocks=4)
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert block.result.sampled_fraction == 0.25
        assert block.executor.engine_blocks["block"] == 4
        assert spans(block) == (1, 0)

    def test_grid_longer_than_the_lane_budget(self):
        blocks = SPAN_LANES // 256 + 1
        outcomes = run_engines(
            saxpy_kernel(), (blocks, 1, 1), (256, 1, 1),
            [F2, F1, 2.0, 256 * blocks - 3], library_setup)
        assert_one_outcome(outcomes)
        counts = outcomes["block"].executor.engine_blocks
        assert counts == {"block": blocks, "thread": 0, "fallback": 0}
        assert spans(outcomes["block"]) == (2, 0)  # full span + remainder

    def test_sub_warp_blocks_are_vectorised_together(self):
        """64 x 16: no block is a warp, the pass is 1024 lanes - by the
        executor's own choice. One such block alone stays per-thread."""
        outcomes = run_engines(
            saxpy_kernel(), (64, 1, 1), (16, 1, 1), [F2, F1, 2.0, 1000],
            library_setup, engines=("jit", "stock"))
        assert_identical(outcomes["jit"], outcomes["stock"])
        executor = outcomes["stock"].executor
        assert executor.engine_blocks == {
            "block": 64, "thread": 0, "fallback": 0}
        assert spans(outcomes["stock"]) == (1, 0)
        alone = Outcome("stock", saxpy_kernel(), (1, 1, 1), (16, 1, 1),
                        [F2, F1, 2.0, 16], library_setup)
        assert alone.executor.engine_blocks == {
            "block": 0, "thread": 1, "fallback": 0}
        assert spans(alone) == (0, 0)

    def test_block_loading_what_the_previous_block_stored(self):
        outcomes = run_engines(chain_kernel(), (5, 1, 1), (64, 1, 1),
                               [BASE])
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        # The span is rolled back whole; each block then vectorises.
        assert block.executor.engine_blocks == {
            "block": 5, "thread": 0, "fallback": 0}
        assert spans(block) == (6, 1)
        out = block.memory.read_array(BASE, 320, dtype="u32")
        assert list(out.reshape(5, 64)[:, 0]) == [1, 2, 3, 4, 5]

    def test_two_blocks_storing_one_cell(self):
        outcomes = run_engines(stamp_kernel(), (3, 1, 1), (64, 1, 1),
                               [BASE])
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert block.executor.engine_blocks == {
            "block": 3, "thread": 0, "fallback": 0}
        assert spans(block) == (4, 1)
        out = block.memory.read_array(BASE, 64, dtype="u32")
        assert (out == 3).all()  # the last block's stamp

    @pytest.mark.parametrize("kind,error", [
        ("fault", MemoryFault), ("misaligned", MemoryFault),
        ("division", ExecutionError)])
    def test_trouble_in_block_2_of_5(self, kind, error):
        """Same exception, same partial memory: blocks 0 and 1
        committed, block 2 up to the offending thread, nothing of
        blocks 3 and 4."""
        bad = {"fault": MEMORY_BYTES, "misaligned": 2, "division": 0}[kind]
        outcomes = run_engines(trouble_kernel(kind), (5, 1, 1), (64, 1, 1),
                               [BASE, bad])
        assert isinstance(outcomes["interpreter"].error, error)
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert block.executor.engine_blocks == {
            "block": 2, "thread": 1, "fallback": 1}
        assert spans(block) == (4, 1)
        # Block 2's lanes below 40 store before the fault; a division by
        # zero kills its first thread before any store.
        stored = 128 if kind == "division" else 168
        out = block.memory.read_array(BASE, 320, dtype="u32")
        assert list(out[:stored]) == list(range(1, stored + 1))
        assert not out[stored:].any()

    def test_span_over_the_log_cap(self):
        """Budgets are per attempt: four blocks together log more
        accesses than one attempt may, each alone does not."""
        with mock.patch.object(blockrt, "LOG_CAP", 500):
            outcomes = run_engines(
                saxpy_kernel(), (4, 1, 1), (64, 1, 1),
                [F2, F1, 2.0, 256], library_setup,
                engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])
        block = outcomes["block"]
        assert block.executor.engine_blocks == {
            "block": 4, "thread": 0, "fallback": 0}
        assert spans(block) == (5, 1)

    @pytest.mark.parametrize("access", ["load", "none"])
    def test_runaway_span_stays_bounded(self, access):
        """8 x 256 lanes of a tenant's infinite loop: the span spends
        one attempt's budget (``LOG_CAP`` with the load, without it
        ``ATTEMPT_STEPS``), block 0 a second one, then the per-thread
        watchdog reports it. Measured with the load: 2.5 s and 57 MB
        peak RSS, what one block of 256 costs (2.5 s, 57 MB; the JIT
        alone 1.7 s, 40 MB) - the span's own attempt ends after 1 024
        iterations. Without it 0.35 s and 41 MB either way."""
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        started = time.process_time()
        block = Outcome("block", spin_kernel(access), (8, 1, 1),
                        (256, 1, 1), [BASE], None)
        assert isinstance(block.error, ExecutionError)
        assert "runaway" in str(block.error)
        assert time.process_time() - started < 15  # noisy box
        grown_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                     - rss_before)
        assert grown_kib < 192 << 10
        assert block.executor.engine_blocks == {
            "block": 0, "thread": 1, "fallback": 1}
        assert spans(block) == (2, 1)

    def test_shared_memory_and_barriers_stay_at_span_1(self):
        """Either one alone ties a thread to its block."""
        b = KernelBuilder("own_slot", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        buf = b.shared_array("buf", "u32", 64)
        tid = b.special("%tid.x")
        slot = b.add("u64", b.mov("u64", buf),
                     b.mul_wide("u32", tid, Immediate(4)))
        b.st_shared("u32", slot, b.global_thread_id())
        b.st_global("u32", b.element_addr(out, b.global_thread_id(), 4),
                    b.ld_shared("u32", slot))
        shared_only = b.build()

        b = KernelBuilder("meet", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        gid = b.global_thread_id()
        b.barrier()
        b.st_global("u32", b.element_addr(out, gid, 4), gid)
        barrier_only = b.build()

        for kernel in (shared_only, barrier_only):
            outcomes = run_engines(kernel, (3, 1, 1), (64, 1, 1), [BASE])
            assert_one_outcome(outcomes)
            block = outcomes["block"]
            assert not block.compiled.code.spannable
            assert vectorised(block)
            assert spans(block) == (3, 0)
            out = block.memory.read_array(BASE, 192, dtype="u32")
            assert list(out) == list(range(192))

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_structured_kernels_across_a_span(self, rng):
        kernel = structured_kernel(rng, use_shared=False)
        threads = rng.choice([32, 48, 64, 96])
        blocks = rng.randrange(1, 7)
        count = rng.randrange(1, threads * blocks + 1)
        outcomes = run_engines(
            kernel, (blocks, 1, 1), (threads, 1, 1),
            [BASE + (1 << 20), F1, count, rng.uniform(-2, 2),
             rng.getrandbits(64)],
            library_setup, engines=("jit", "block"))
        jit, block = outcomes["jit"], outcomes["block"]
        assert_identical(jit, block)
        if finite_run(kernel, jit):
            assert vectorised(block)
            assert spans(block) == (1, 0)


#: Bytes between two lines of one L1 set: sets x line size.
SET_STRIDE = QUADRO_RTX_A4000.l1_kb * 1024 // 8
#: ``F1`` moved to the L1 set after the one ``OUT``'s first line is in.
SET_1 = F1 + 128


def walked_phases():
    """Patch in a counter of the phases the commit replays access by
    access (the bulk replay walks none): ``(patch, counts)``."""
    counts = []
    real = blockrt._thread_major

    def spy(entries, block_bounds):
        counts.append(len(entries))
        return real(entries, block_bounds)

    return mock.patch.object(blockrt, "_thread_major", spy), counts


def run_counting_walks(*args, **kwargs):
    patch, walked = walked_phases()
    with patch:
        outcomes = run_engines(*args, **kwargs)
    assert_one_outcome(outcomes)
    assert vectorised(outcomes["block"])
    return outcomes, walked


def ring_kernel():
    """Thread t < n loads ``inp + SET_STRIDE * t`` and then the next
    thread's line (the last thread's is thread 0's), one L1 set, and
    stores their sum at ``out + 4 t``: the last touch of line 0 is the
    span's last access."""
    b = KernelBuilder("ring", params=[("out", "u64"), ("inp", "u64"),
                                      ("n", "u32")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    n = b.load_param("n", "u32")
    tid = b.special("%tid.x")
    mine = b.ld_global("u32", b.element_addr(inp, tid, SET_STRIDE))
    following = b.rem("u32", b.add("u32", tid, Immediate(1)), n)
    theirs = b.ld_global("u32", b.element_addr(inp, following, SET_STRIDE))
    b.st_global("u32", b.element_addr(out, tid, 4),
                b.add("u32", mine, theirs))
    return b.build()


def banded_kernel():
    """Thread g loads line ``g / 410`` of ``inp``'s set and stores it
    at ``out + 4 g``."""
    b = KernelBuilder("banded", params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    gid = b.global_thread_id()
    line = b.div("u32", gid, Immediate(410))
    b.st_global("u32", b.element_addr(out, gid, 4),
                b.ld_global("u32", b.element_addr(inp, line, SET_STRIDE)))
    return b.build()


def two_phase_kernel():
    """Phase 1: thread t loads line ``t % 4`` of ``inp``'s set into
    shared memory; after ``bar.sync`` it loads line ``(63 - t) % 4``
    again, so the phases leave the set's lines in opposite orders."""
    b = KernelBuilder("two_phase", params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    buf = b.shared_array("buf", "u32", 64)
    tid = b.special("%tid.x")
    slot = b.add("u64", b.mov("u64", buf),
                 b.mul_wide("u32", tid, Immediate(4)))
    first = b.and_("b32", tid, Immediate(3))
    b.st_shared("u32", slot,
                b.ld_global("u32", b.element_addr(inp, first, SET_STRIDE)))
    b.barrier()
    second = b.and_("b32", b.sub("u32", Immediate(63), tid), Immediate(3))
    again = b.ld_global("u32", b.element_addr(inp, second, SET_STRIDE))
    b.st_global("u32", b.element_addr(out, tid, 4),
                b.add("u32", again, b.ld_shared("u32", slot)))
    return b.build()


def divergent_loads_kernel():
    """Odd threads load line ``3 t % 7`` of ``inp``'s set under a
    guard, even ones line ``t % 5`` of the next set; then, in a branch
    only threads below 40 take, every one of them loads line ``t % 3``
    of the first."""
    b = KernelBuilder("divergent_loads", params=[("out", "u64"),
                                                 ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    gid = b.global_thread_id()
    odd = b.setp("eq", "u32", b.and_("b32", gid, Immediate(1)),
                 Immediate(1))
    value = b.mov("u32", Immediate(0))
    odd_line = b.rem("u32", b.mul("u32", gid, Immediate(3)), Immediate(7))
    b.emit("ld.global.u32", value,
           MemRef(b.element_addr(inp, odd_line, SET_STRIDE)),
           guard=Guard(odd.name))
    even_line = b.add("u64", b.element_addr(
        inp, b.rem("u32", gid, Immediate(5)), SET_STRIDE), Immediate(128))
    b.emit("ld.global.u32", value, MemRef(even_line),
           guard=Guard(odd.name, negated=True))
    total = b.mov("u32", value)
    with b.if_less_than(gid, Immediate(40)):
        extra = b.ld_global("u32", b.element_addr(
            inp, b.rem("u32", gid, Immediate(3)), SET_STRIDE))
        b.emit("add.u32", total, total, extra)
    b.st_global("u32", b.element_addr(out, gid, 4), total)
    return b.build()


def high_lanes_first_kernel():
    """Threads 32-63 load ``inp`` under a guard, then threads 0-31 do:
    the log holds thread 63's access right before thread 0's, and
    thread 0's, later in the log, is the line's first touch, so warp 0
    pays the miss. Thread 63 then misses on another line, so warp 1
    costs as much whichever of its lanes the first miss went to."""
    b = KernelBuilder("high_lanes_first", params=[("out", "u64"),
                                                  ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    tid = b.special("%tid.x")
    high = b.setp("ge", "u32", tid, Immediate(32))
    value = b.mov("u32", Immediate(0))
    b.emit("ld.global.u32", value, MemRef(inp), guard=Guard(high.name))
    b.emit("ld.global.u32", value, MemRef(inp),
           guard=Guard(high.name, negated=True))
    last = b.setp("eq", "u32", tid, Immediate(63))
    b.emit("ld.global.u32", value, MemRef(inp, 256), guard=Guard(last.name))
    b.st_global("u32", b.element_addr(out, tid, 4), value)
    return b.build()


class TestCommitPaths:
    """The commit replays a span in bulk when every L1 set it touches
    can hold its residents and its new lines at once, and access by
    access otherwise. Either way the cache lines in recency order, the
    hit and miss counts and the level counts are the per-thread
    JIT's."""

    def test_eight_lines_in_one_set_go_in_bulk(self):
        outcomes, walked = run_counting_walks(
            ring_kernel(), (1, 1, 1), (8, 1, 1), [OUT, SET_1, 8],
            library_setup)
        assert walked == []
        l1 = outcomes["block"].executor.hierarchy.l1
        # Line 0 was touched last (by thread 7), line 7 before it.
        assert l1._sets[1] == [SET_1 // SET_STRIDE + k
                               for k in (0, 7, 6, 5, 4, 3, 2, 1)]

    def test_nine_lines_in_one_set_are_walked(self):
        _, walked = run_counting_walks(
            ring_kernel(), (1, 1, 1), (9, 1, 1), [OUT, SET_1, 9],
            library_setup)
        assert walked == [3]  # the phase's two loads and a store

    def test_residents_of_the_first_span_overflow_the_second(self):
        """Span 1 (blocks 0-1) leaves lines 0-4 of the set, span 2
        (blocks 2-3) touches lines 4-9: 6 lines fit a set, 10 do not."""
        outcomes, walked = run_counting_walks(
            banded_kernel(), (4, 1, 1), (1024, 1, 1), [OUT, SET_1],
            library_setup)
        assert spans(outcomes["block"]) == (2, 0)
        assert walked == [2]

    def test_a_second_phase_touches_the_first_phases_lines(self):
        outcomes, walked = run_counting_walks(
            two_phase_kernel(), (2, 1, 1), (64, 1, 1), [OUT, SET_1],
            library_setup)
        assert walked == []
        assert spans(outcomes["block"]) == (2, 0)

    def test_log_neighbours_from_a_higher_lane(self):
        _, walked = run_counting_walks(
            high_lanes_first_kernel(), (1, 1, 1), (64, 1, 1), [OUT, SET_1],
            library_setup)
        assert walked == []

    @pytest.mark.parametrize("grid", [(1, 1, 1), (3, 1, 1)])
    def test_guarded_and_divergent_loads(self, grid):
        _, walked = run_counting_walks(
            divergent_loads_kernel(), grid, (64, 1, 1), [OUT, SET_1],
            library_setup)
        assert walked == []


class TestLaneGeometryIsBounded:
    def test_distinct_block_shapes_do_not_grow_the_process(self):
        """The geometry table is keyed by what a tenant chooses."""
        b = KernelBuilder("shape", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        x, y, z = (b.special(f"%tid.{axis}") for axis in "xyz")
        linear = b.mad_lo(
            "u32", b.mad_lo("u32", z, b.special("%ntid.y"), y),
            b.special("%ntid.x"), x)
        b.st_global(
            "u32", b.element_addr(out, linear, 4),
            b.or_("b32", x, b.or_("b32", b.shl("b32", y, Immediate(10)),
                                  b.shl("b32", z, Immediate(20)))))
        kernel = b.build()
        shapes = [(bx, by, bz)
                  for bx in range(1, 301) for by in range(1, 300 // bx + 1)
                  for bz in range(1, 300 // (bx * by) + 1)][:5000]
        assert len(set(shapes)) == 5000
        memory = GlobalMemory(1 << 16)
        with forced_engine("block") as make:
            executor = make(SPEC, memory)
            compiled = compile_kernel(kernel, SPEC)
            for shape in shapes:
                executor.launch(compiled, (1, 1, 1), shape, [BASE])
                geometry = executor._block_runtime._geometry
                assert len(geometry) <= blockrt.GEOMETRY_SLOTS
                threads = shape[0] * shape[1] * shape[2]
                stored = memory.read_array(BASE, threads, dtype="u32")
                z, y, x = np.indices(shape[::-1]).reshape(3, -1)
                assert np.array_equal(stored, x | y << 10 | z << 20), shape
        assert executor.engine_blocks == {
            "block": 5000, "thread": 0, "fallback": 0}


# --------------------------------------------------------------------------
# Guarded transfers, %clock and the per-thread loop
# --------------------------------------------------------------------------


def early_exit_kernel(op):
    """out[tid] = 1; ``@(tid >= 2) ret`` (or ``exit``); out[tid] = 7."""
    b = KernelBuilder(f"early_{op}", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    slot = b.element_addr(out, tid, 4)
    b.st_global("u32", slot, Immediate(1))
    late = b.setp("ge", "u32", tid, Immediate(2))
    b.emit(op, guard=Guard(late.name))
    b.st_global("u32", slot, Immediate(7))
    return b.build()


def guarded_brx_kernel():
    """Odd threads take ``@p brx.idx`` (index 0) to the store of 100;
    even ones, whose index -1 is out of range, fall through to the
    store of 5 without looking at it."""
    b = KernelBuilder("guarded_brx", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    slot = b.element_addr(out, tid, 4)
    parity = b.and_("b32", tid, Immediate(1))
    odd = b.setp("eq", "u32", parity, Immediate(1))
    index = b.sub("s32", parity, Immediate(1))
    far = b.fresh_label("far")
    done = b.fresh_label("done")
    b.emit("brx.idx", index, TargetList((far,)), guard=Guard(odd.name))
    b.st_global("u32", slot, Immediate(5))
    b.bra(done)
    b.label(far)
    b.st_global("u32", slot, Immediate(100))
    b.label(done)
    return b.build()


def clock_kernel(looped):
    """Stores ``%clock``: once after the prologue, or in each of three
    loop trips after a global load."""
    b = KernelBuilder(f"clock_{'loop' if looped else 'line'}",
                      params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    tid = b.special("%tid.x")
    if not looped:
        b.st_global("u32", b.element_addr(out, tid, 4), b.special("%clock"))
        return b.build()
    with b.loop(Immediate(3)) as trip:
        value = b.ld_global(
            "u32", b.element_addr(inp, b.add("u32", tid, trip), 4))
        stamp = b.add("u32", b.special("%clock"), value)
        cell = b.mad_lo("u32", tid, Immediate(3), trip)
        b.st_global("u32", b.element_addr(out, cell, 4), stamp)
    return b.build()


class TestGuardedTransfers:
    """``@p ret`` / ``@p exit`` / ``@p brx.idx`` with ``p`` false fall
    through, as in the interpreter; the block engine refuses a guarded
    exit, so such a kernel runs on the JIT."""

    @pytest.mark.parametrize("op", ["ret", "exit"])
    def test_guarded_exit(self, op):
        outcomes = run_engines(early_exit_kernel(op), (1, 1, 1),
                               (4, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert list(block.memory.read_array(BASE, 4, dtype="u32")) == [
            7, 7, 1, 1]
        assert block.executor.engine_blocks == {
            "block": 0, "thread": 1, "fallback": 0}
        assert "guarded exit" in block.compiled.code.block_unsupported_reason

    def test_guarded_indirect_branch(self):
        outcomes = run_engines(guarded_brx_kernel(), (1, 1, 1), (8, 1, 1),
                               [BASE])
        assert_one_outcome(outcomes)
        out = outcomes["block"].memory.read_array(BASE, 8, dtype="u32")
        assert list(out) == [5, 100] * 4


class TestClock:
    """``%clock`` reads the cycles so far, the reading instruction's
    included, on the JIT as in the interpreter."""

    @pytest.mark.parametrize("looped", [False, True], ids=["line", "loop"])
    def test_clock_matches_the_interpreter(self, looped):
        outcomes = run_engines(clock_kernel(looped), (1, 1, 1), (16, 1, 1),
                               [BASE, IDX], library_setup,
                               engines=("interpreter", "jit"))
        assert_one_outcome(outcomes)
        stamps = outcomes["jit"].memory.read_array(
            BASE, 48 if looped else 16, dtype="u32")
        assert stamps.all()


def lane_warp_kernel():
    """out[2t] = %laneid, out[2t + 1] = %warpid for linear id t."""
    b = KernelBuilder("lane_warp", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    slot = b.element_addr(out, b.shl("b32", block_linear_id(b),
                                     Immediate(1)), 4)
    b.st_global("u32", slot, b.special("%laneid"))
    b.st_global("u32", slot, b.special("%warpid"), offset=4)
    return b.build()


def local_kernel():
    """Each thread reads its ``.local`` word 8, stores tid + 1 there
    and reads it again: out[tid] = 1000 * before + after, so a buffer
    another thread wrote would show."""
    b = KernelBuilder("local_cell", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    cell = b.mov("u64", Immediate(8))
    before = b.reg("u32")
    b.emit("ld.local.u32", before, MemRef(cell))
    b.emit("st.local.u32", MemRef(cell), b.add("u32", tid, Immediate(1)))
    after = b.reg("u32")
    b.emit("ld.local.u32", after, MemRef(cell))
    b.st_global("u32", b.element_addr(out, tid, 4),
                b.mad_lo("u32", before, Immediate(1000), after))
    return b.build()


def fault_at_kernel(victim):
    """out[tid] = tid + 1, thread ``victim`` storing ``bad`` bytes
    further on."""
    b = KernelBuilder(f"fault_at_{victim}", params=[("out", "u64"),
                                                    ("bad", "u32")])
    out = b.load_param_ptr("out")
    bad = b.load_param("bad", "u32")
    tid = b.special("%tid.x")
    skew = b.reg("u32")
    b.emit("selp.b32", skew, bad, Immediate(0),
           b.setp("eq", "u32", tid, Immediate(victim)))
    address = b.add("s64", b.element_addr(out, tid, 4),
                    b.cvt("u64", "u32", skew))
    b.st_global("u32", address, b.add("u32", tid, Immediate(1)))
    return b.build()


def counted_kernel(name, trips):
    """Every thread runs ``trips`` loop trips (two dispatch steps
    each) and stores the count."""
    b = KernelBuilder(name, params=[("out", "u64")])
    out = b.load_param_ptr("out")
    total = b.mov("u32", Immediate(0))
    with b.loop(Immediate(trips)):
        b.emit("add.u32", total, total, Immediate(1))
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4), total)
    return b.build()


class TestThreadLoop:
    """A kernel without ``bar`` runs a block as one generated loop over
    its threads; everything observable is what thread-after-thread
    generators produced."""

    @pytest.mark.parametrize("block", [(48, 1, 1), (80, 1, 1), (8, 4, 2)],
                             ids=["48", "80", "8x4x2"])
    def test_ragged_and_multidimensional_blocks(self, block):
        """Walk lengths differ per thread, so a warp maximum folded
        over the wrong threads would show in the cycles."""
        def setup(memory):
            memory.write_array(
                BASE + 65536,
                np.arange(1, 81, dtype=np.uint32) * 7 % 97, dtype="u32")

        outcomes = run_engines(collatz_kernel(in_block=True), (2, 1, 1),
                               block, [BASE, BASE + 65536, 77], setup)
        assert_one_outcome(outcomes)
        jit = outcomes["jit"]
        assert jit.compiled.code.barrier_free
        assert jit.executor._engines[jit.compiled.code].thread.__name__ == (
            "_threads")

    @pytest.mark.parametrize("block", [(80, 1, 1), (8, 4, 2)],
                             ids=["80", "8x4x2"])
    def test_lane_and_warp_ids(self, block):
        outcomes = run_engines(lane_warp_kernel(), (1, 1, 1), block, [BASE])
        assert_one_outcome(outcomes)
        threads = block[0] * block[1] * block[2]
        stored = outcomes["jit"].memory.read_array(BASE, 2 * threads,
                                                   dtype="u32")
        linear = np.arange(threads)
        assert np.array_equal(stored[0::2], linear % 32)
        assert np.array_equal(stored[1::2], linear // 32)

    def test_local_memory_is_fresh_per_thread(self):
        outcomes = run_engines(local_kernel(), (2, 1, 1), (16, 1, 1),
                               [BASE])
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 16, dtype="u32")
        assert list(stored) == list(range(1, 17))

    def test_fault_in_thread_5_of_16(self):
        """Same exception; threads 0-4 stored, 5-15 did not."""
        outcomes = run_engines(fault_at_kernel(5), (1, 1, 1), (16, 1, 1),
                               [BASE, MEMORY_BYTES])
        assert isinstance(outcomes["interpreter"].error, MemoryFault)
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 16, dtype="u32")
        assert list(stored) == [1, 2, 3, 4, 5] + [0] * 11

    def test_watchdog_is_per_thread(self):
        """Under a watchdog of 100 dispatch steps: 16 threads of ~80
        steps each finish (1 300 steps in the loop), one of ~120 is a
        runaway with the per-thread engine's message. The interpreter
        counts the same steps against the same constant."""
        with mock.patch.object(codegen, "MAX_BLOCK_STEPS", 100):
            finishes = run_engines(counted_kernel("trips_40", 40),
                                   (1, 1, 1), (16, 1, 1), [BASE],
                                   engines=("interpreter", "jit"))
            runaways = run_engines(counted_kernel("trips_60", 60),
                                   (1, 1, 1), (16, 1, 1), [BASE],
                                   engines=("interpreter", "jit"))
        assert_one_outcome(finishes)
        assert_one_outcome(runaways)
        runaway = runaways["interpreter"]
        assert isinstance(runaway.error, ExecutionError)
        assert str(runaway.error) == "runaway kernel trips_60"
        assert not runaway.memory.read_array(BASE, 16, dtype="u32").any()

    def test_no_thread_records_and_no_generators(self):
        """A barrier-free 16-thread block builds no ``_Thread`` and
        resumes no generator; a ``bar`` kernel still does both."""
        b = KernelBuilder("meet16", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        tid = b.special("%tid.x")
        b.barrier()
        b.st_global("u32", b.element_addr(out, tid, 4), tid)
        counts = {}
        for name, kernel in (("saxpy", saxpy_kernel()), ("bar", b.build())):
            with mock.patch.object(
                    gpu_executor, "_Thread",
                    wraps=gpu_executor._Thread) as records, \
                    mock.patch.object(gpu_executor, "next", wraps=next,
                                      create=True) as resumes:
                outcome = Outcome("stock", kernel, (1, 1, 1), (16, 1, 1),
                                  [F2, F1, 2.0, 16][:len(kernel.params)],
                                  library_setup)
            assert outcome.error is None
            assert outcome.executor.engine_blocks == {
                "block": 0, "thread": 1, "fallback": 0}
            counts[name] = (records.call_count, resumes.call_count)
        assert counts["saxpy"] == (0, 0)
        assert counts["bar"] == (16, 32)  # to the barrier, then to the end


# --------------------------------------------------------------------------
# Inlined global accesses, the launch-invariant prefix, acyclic kernels
# --------------------------------------------------------------------------


def assert_fault_as_interpreter(outcomes):
    """A kernel that faults: the same exception, memory and cache lines,
    statistics included, on every engine run."""
    assert isinstance(outcomes["interpreter"].error, MemoryFault)
    assert_one_outcome(outcomes)


def entries(run, *functions):
    """How often ``run()`` enters each function's code."""
    counts = {function.__code__: 0 for function in functions}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return list(counts.values())


def memory_helpers():
    """``(_ldg_f32, _stg_f32, _resolve)``: any executor's helpers share
    their code objects."""
    env = codegen.make_memory_helpers(
        GlobalMemory(PAGE_SIZE), MemoryHierarchy.for_spec(SPEC),
        CostModel(SPEC))
    return env["_ldg_f32"], env["_stg_f32"], env["_resolve"]


def levels_kernel(stride):
    """One thread's walk through the cache: a cold miss, a way-0 hit,
    a line ``stride`` bytes on, a hit on the first line (in way 1 when
    ``stride`` keeps the L1 set), eight more lines that push both out
    of that set but not out of L2, the first line again, and a store
    to a cold line."""
    b = KernelBuilder("levels", params=[("p", "u64")])
    p = b.load_param_ptr("p")
    total = b.ld_global("u32", p)
    offsets = [4, stride, 8] + [k * stride for k in range(2, 10)] + [12]
    for offset in offsets:
        b.emit("add.u32", total, total, b.ld_global("u32", p, offset=offset))
    b.st_global("u32", p, total, offset=128)
    return b.build()


def copy_fault_kernel(victim, parked=False):
    """out[tid] = in[tid] + 1, thread ``victim`` storing ``bad`` bytes
    further on. ``parked``: then ``bar`` and out[tid] += 1, so the
    threads before ``victim`` wait at the barrier when it faults."""
    b = KernelBuilder(f"copy_fault_{victim}_{parked}", params=[
        ("out", "u64"), ("inp", "u64"), ("bad", "u32")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    bad = b.load_param("bad", "u32")
    tid = b.special("%tid.x")
    value = b.add("u32", b.ld_global("u32", b.element_addr(inp, tid, 4)),
                  Immediate(1))
    skew = b.reg("u32")
    b.emit("selp.b32", skew, bad, Immediate(0),
           b.setp("eq", "u32", tid, Immediate(victim)))
    slot = b.element_addr(out, tid, 4)
    b.st_global("u32", b.add("s64", slot, b.cvt("u64", "u32", skew)), value)
    if parked:
        b.barrier()
        b.st_global("u32", slot, b.add("u32", value, Immediate(1)))
    return b.build()


#: Input of the copy kernels: another L1 set than BASE's line, so
#: every thread after the first hits way 0 on both.
INP = BASE + 4096


def copy_setup(memory):
    memory.write(BASE, b"\x55" * 256)
    memory.write_array(INP, np.arange(1, 65, dtype=np.uint32), dtype="u32")


class TestInlineGlobalAccess:
    """The JIT inlines a global ld/st's checks, the L1 way-0 compare
    and the in-page access; everything else goes through the helpers.
    Way-0 hits are counted locally and folded into the hierarchy's
    statistics when the function ends, however it ends."""

    def test_every_cache_level(self):
        outcomes = run_engines(levels_kernel(16384), (1, 1, 1), (1, 1, 1),
                               [BASE], copy_setup)
        assert_one_outcome(outcomes)
        assert outcomes["jit"].result.level_counts == {
            "l1": 2, "l2": 1, "global": 11}
        # Only the way-0 hit stays inline; the hit in way 1 walks too.
        counts = entries(
            lambda: Outcome("jit", levels_kernel(16384), (1, 1, 1),
                            (1, 1, 1), [BASE], copy_setup),
            *memory_helpers())
        assert counts == [0, 0, 13]

    def test_load_from_a_never_written_page(self):
        far = BASE + 3 * PAGE_SIZE
        outcomes = run_engines(reader_kernel(), (1, 1, 1), (4, 1, 1),
                               [BASE, far, 0], copy_setup)
        assert_one_outcome(outcomes)
        for outcome in outcomes.values():
            assert len(outcome.memory._pages) == 1  # what copy_setup wrote
            assert outcome.memory.load_scalar(BASE, "u32") == 0

    @pytest.mark.parametrize("victim,bad", [(5, 2), (9, MEMORY_BYTES)],
                             ids=["misaligned", "unmapped"])
    def test_fault_mid_block_folds_the_hits(self, victim, bad):
        """Threads before the victim hit way 0 on both lines; the fold
        in ``finally`` must still reach the statistics."""
        outcomes = run_engines(copy_fault_kernel(victim), (1, 1, 1),
                               (16, 1, 1), [BASE, INP, bad], copy_setup)
        assert_fault_as_interpreter(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 16, dtype="u32")
        assert list(stored[:victim]) == list(range(2, victim + 2))
        hits = outcomes["jit"].executor.hierarchy.l1.stats.hits
        assert hits == 2 * victim - 1  # the victim's load hits too

    def test_fault_while_others_wait_at_the_barrier(self):
        """A ``bar`` kernel: threads 0-6 are parked when thread 7
        faults, and their generators are never resumed."""
        outcomes = run_engines(copy_fault_kernel(7, parked=True),
                               (1, 1, 1), (16, 1, 1),
                               [BASE, INP, MEMORY_BYTES], copy_setup)
        assert_fault_as_interpreter(outcomes)
        assert outcomes["jit"].executor.hierarchy.l1.stats.hits == 13
        stored = outcomes["jit"].memory.read_array(BASE, 8, dtype="u32")
        assert list(stored[:7]) == list(range(2, 9))


def countdown_kernel():
    """out[tid] = trips, counted down in the parameter's own register."""
    b = KernelBuilder("countdown", params=[("out", "u64"), ("trips", "u32")])
    out = b.load_param_ptr("out")
    trips = b.load_param("trips", "u32")
    done = b.mov("u32", Immediate(0))
    head = b.fresh_label("head")
    end = b.fresh_label("end")
    b.label(head)
    b.bra(end, guard_reg=b.setp("eq", "u32", trips, Immediate(0)))
    b.emit("sub.u32", trips, trips, Immediate(1))
    b.emit("add.u32", done, done, Immediate(1))
    b.bra(head)
    b.label(end)
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4), done)
    return b.build()


def guarded_entry_kernel():
    """out[tid] = n > 4 ? n : 7 + ntid, the choice a guarded ``mov``."""
    b = KernelBuilder("guarded_entry", params=[("out", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    n = b.load_param("n", "u32")
    big = b.setp("gt", "u32", n, Immediate(4))
    value = b.add("u32", b.special("%ntid.x"), Immediate(7))
    b.emit("mov.u32", value, n, guard=Guard(big.name))
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4), value)
    return b.build()


def special_entry_kernel(name):
    """out[tid] = ``name`` + ntid, reading ``name`` fourth."""
    b = KernelBuilder("special_entry", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    width = b.special("%ntid.x")
    value = b.special(name)
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4),
                b.add("u32", value, width))
    return b.build()


def division_prefix_kernel():
    """out[tid] = 7 / k: a zero ``k`` kills the kernel inside the
    prefix."""
    b = KernelBuilder("division_prefix",
                      params=[("out", "u64"), ("k", "u32")])
    out = b.load_param_ptr("out")
    quotient = b.div("u32", Immediate(7), b.load_param("k", "u32"))
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4),
                quotient)
    return b.build()


def reentry_kernel():
    """``top: out = param; t = %clock; @(t < 200) bra top``, then
    out[tid] = t: the entry block is the loop body."""
    b = KernelBuilder("reentry", params=[("out", "u64")])
    top = b.fresh_label("top")
    b.label(top)
    out = b.load_param_ptr("out")
    stamp = b.special("%clock")
    b.bra(top, guard_reg=b.setp("lt", "u32", stamp, Immediate(200)))
    b.st_global("u32", b.element_addr(out, b.special("%tid.x"), 4), stamp)
    return b.build()


def prefix_of(kernel) -> int:
    return codegen.invariant_prefix(compile_kernel(kernel, SPEC).instructions)


class TestInvariantPrefix:
    """The loop form evaluates the entry block's launch-invariant
    prefix once per block and charges it to every thread."""

    def test_a_register_the_loop_rewrites_is_rebound_per_thread(self):
        assert prefix_of(countdown_kernel()) == 4  # out, trips, done
        outcomes = run_engines(countdown_kernel(), (2, 1, 1), (16, 1, 1),
                               [BASE, 5])
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 16, dtype="u32")
        assert list(stored) == [5] * 16

    @pytest.mark.parametrize("n", [9, 3])
    def test_a_guarded_instruction_ends_it(self, n):
        assert prefix_of(guarded_entry_kernel()) == 6
        outcomes = run_engines(guarded_entry_kernel(), (1, 1, 1),
                               (16, 1, 1), [BASE, n])
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 16, dtype="u32")
        assert list(stored) == [n if n > 4 else 23] * 16

    @pytest.mark.parametrize("name", ["%tid.x", "%laneid", "%clock"])
    def test_a_per_thread_special_register_ends_it(self, name):
        assert prefix_of(special_entry_kernel(name)) == 3
        outcomes = run_engines(special_entry_kernel(name), (1, 1, 1),
                               (16, 1, 1), [BASE],
                               engines=("interpreter", "jit"))
        assert_one_outcome(outcomes)

    def test_nothing_is_hoisted_from_an_entry_block_a_branch_reenters(self):
        """Each trip re-runs (and is charged) the param loads."""
        assert prefix_of(reentry_kernel()) == 0
        outcomes = run_engines(reentry_kernel(), (1, 1, 1), (4, 1, 1),
                               [BASE], engines=("interpreter", "jit"))
        assert_one_outcome(outcomes)
        # 4 threads x 5 trips x 6 instructions.
        assert outcomes["jit"].result.instructions == 4 * 5 * 6

    def test_a_prefix_that_raises(self):
        assert prefix_of(division_prefix_kernel()) == 4
        outcomes = run_engines(division_prefix_kernel(), (2, 1, 1),
                               (16, 1, 1), [BASE, 0], copy_setup,
                               engines=("interpreter", "jit"))
        error = outcomes["interpreter"].error
        assert isinstance(error, ExecutionError)
        assert str(error) == "integer division by zero"
        assert_one_outcome(outcomes)

    def test_two_l1_geometries_share_one_kernel_code(self):
        """Set count, line size, hit cost and statistics come from each
        executor's globals, never from the shared source."""
        small = dataclasses.replace(SPEC, l1_kb=64)
        states = {}
        codes = []
        for spec in (SPEC, small):
            outcomes = run_engines(levels_kernel(8192), (1, 1, 1),
                                   (4, 1, 1), [BASE], copy_setup,
                                   engines=("interpreter", "jit"),
                                   spec=spec)
            assert_one_outcome(outcomes)
            states[spec.l1_kb] = outcomes["jit"].cache_state()
            codes.append(outcomes["jit"])
        assert codes[0].compiled.code is codes[1].compiled.code
        assert states[128] != states[64]


class TestInlinedLaunch:
    """Count and shape pins of the storms' launch: the bitwise-fenced
    saxpy, one block of 16 threads."""

    @staticmethod
    def _storm_saxpy():
        def setup(memory):
            memory.write_array(BASE, np.arange(16, dtype=np.float32))
            memory.write_array(BASE + 256, np.ones(16, dtype=np.float32))

        return Outcome(
            "stock", fenced(saxpy_kernel(), FencingMode.BITWISE), (1, 1, 1),
            (16, 1, 1),
            [BASE, BASE + 256, 2.0, 16] + extra_params(FencingMode.BITWISE),
            setup)

    def test_two_cold_lines_are_the_only_helper_calls(self):
        """48 accesses: the first touch of x's and y's lines walks
        ``resolve``; the 46 way-0 hits never leave the function."""
        launch = []
        counts = entries(lambda: launch.append(self._storm_saxpy()),
                         *memory_helpers())
        assert counts == [0, 0, 2]
        outcome, = launch
        assert outcome.error is None
        assert outcome.result.level_counts == {"l1": 46, "l2": 0,
                                               "global": 2}
        assert list(outcome.memory.read_array(BASE, 16)) == [
            2.0 + i for i in range(16)]

    def test_the_store_reuses_the_loads_fence(self):
        """y's address is fenced for its load and again for its store;
        the JIT evaluates the pair once, and no fence op re-masks to
        64 bits a value that is already in range."""
        source = codegen.ThreadCodegen(
            compile_kernel(fenced(saxpy_kernel(), FencingMode.BITWISE),
                           SPEC), CostModel(SPEC)).generate(True)
        assert source.count("& r_grd2") == 2
        assert source.count("| r_grd1") == 2
        fences = [line for line in source.split("\n")
                  if "& r_grd2" in line or "| r_grd1" in line]
        assert not any(str((1 << 64) - 1) in line for line in fences)

    def test_acyclic_kernels_have_no_dispatch_loop(self):
        def source(kernel):
            return codegen.ThreadCodegen(
                compile_kernel(kernel, SPEC), CostModel(SPEC)).generate(True)

        straight = source(fenced(saxpy_kernel(), FencingMode.BITWISE))
        assert "while True" not in straight
        assert "runaway" not in straight
        looped = source(counted_kernel("trips_40", 40))
        assert "while True" in looped
        assert "runaway kernel trips_40" in looped


class TestInterpreterAtomics:
    """``atom`` checks alignment, then the mapped range, before the
    caches see the access - in the interpreter as in the JIT."""

    @pytest.mark.parametrize("offset,kind", [
        (2, "misaligned u32"), (MEMORY_BYTES - 2, "misaligned u32"),
        (MEMORY_BYTES + 64, "atomic")], ids=["base+2", "limit-2", "limit+64"])
    def test_checked_before_the_caches(self, offset, kind):
        def setup(memory):
            memory.write(BASE, b"\x11" * 8)
            memory.write(BASE + MEMORY_BYTES - 8, b"\x22" * 8)

        b = KernelBuilder("bump", params=[("p", "u64")])
        b.atom_add_global("u32", b.load_param_ptr("p"), Immediate(1))
        outcomes = run_engines(b.build(), (1, 1, 1), (4, 1, 1),
                               [BASE + offset], setup,
                               engines=("interpreter", "jit"))
        assert_fault_as_interpreter(outcomes)
        assert kind in str(outcomes["interpreter"].error)
        for outcome in outcomes.values():
            hierarchy = outcome.executor.hierarchy
            assert hierarchy.l1.stats.accesses == 0
            assert hierarchy.level_counts == {"l1": 0, "l2": 0, "global": 0}


# --------------------------------------------------------------------------
# The per-thread JIT's fence reuse and in-range masks
# --------------------------------------------------------------------------

#: A 4 KiB partition at BASE, fenced bitwise: (address & mask) | base.
FENCE_MASK = 0xFFF


def fence(b, address, mask, base, guard=None):
    """The bitwise fence pair on ``address``, in place."""
    b.emit("and.b64", address, address, mask, guard=guard)
    b.emit("or.b64", address, address, base, guard=guard)


def fence_params(b):
    """(mask, base) as launch parameters."""
    return b.load_param("mask", "u64"), b.load_param("base", "u64")


def refence_kernel(rewrite):
    """Load through a fenced ``out + 8*tid``, rewrite the address, the
    mask or the base, fence again and store the loaded value + 1."""
    b = KernelBuilder(f"refence_{rewrite}", params=[
        ("mask", "u64"), ("base", "u64"), ("out", "u64")])
    mask, base = fence_params(b)
    address = b.element_addr(b.load_param_ptr("out"), b.special("%tid.x"), 8)
    fence(b, address, mask, base)
    value = b.ld_global("u64", address)
    if rewrite == "address":
        b.emit("add.s64", address, address, Immediate(0x1400))
    elif rewrite == "mask":
        b.emit("shr.u64", mask, mask, Immediate(4))
    else:
        b.emit("add.s64", base, base, Immediate(FENCE_MASK + 1))
    fence(b, address, mask, base)
    b.st_global("u64", address, b.add("u64", value, Immediate(1)))
    return b.build()


def guarded_fence_kernel():
    """Odd threads fence ``out + 8*tid`` under a guard and load; every
    thread fences and stores the value + 1; odd threads then move the
    address under a guard, and every thread fences and stores the
    value."""
    b = KernelBuilder("guarded_fence", params=[
        ("mask", "u64"), ("base", "u64"), ("out", "u64")])
    mask, base = fence_params(b)
    tid = b.special("%tid.x")
    address = b.element_addr(b.load_param_ptr("out"), tid, 8)
    odd = Guard(b.setp("eq", "u32", b.and_("b32", tid, Immediate(1)),
                       Immediate(1)).name)
    fence(b, address, mask, base, guard=odd)
    value = b.ld_global("u64", address)
    fence(b, address, mask, base)
    b.st_global("u64", address, b.add("u64", value, Immediate(1)))
    b.emit("add.s64", address, address, Immediate(0x1100), guard=odd)
    fence(b, address, mask, base)
    b.st_global("u64", address, value)
    return b.build()


def negative_bitwise_kernel():
    """``and``/``or``/``xor.b64`` of ``-1 - tid`` (a natural negative
    in an s32 register) with a constant; stores each result."""
    b = KernelBuilder("negative_bitwise", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    negative = b.sub("s32", Immediate(-1), tid)
    for k, op in enumerate(("and", "or", "xor")):
        wide = b.reg("u64")
        b.emit(f"{op}.b64", wide, negative, Immediate(0x30F0))
        cell = b.element_addr(out, b.add("u32", tid, Immediate(16 * k)), 8)
        b.st_global("u64", cell, wide)
    return b.build()


def mixed_width_kernel():
    """One register written by ``ld.param.u64`` and, in odd threads, by
    ``sub.s32`` (a negative); stores ``or``/``xor.b64`` of it."""
    b = KernelBuilder("mixed_width", params=[("out", "u64"), ("seed", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    wide = b.load_param("seed", "u64")
    odd = b.setp("eq", "u32", b.and_("b32", tid, Immediate(1)), Immediate(1))
    b.emit("sub.s32", wide, Immediate(0), tid, guard=Guard(odd.name))
    for k, op in enumerate(("or", "xor")):
        mixed = b.reg("u64")
        b.emit(f"{op}.b64", mixed, wide, Immediate(0x5A))
        cell = b.element_addr(out, b.add("u32", tid, Immediate(16 * k)), 8)
        b.st_global("u64", cell, mixed)
    return b.build()


def wide_division_kernel():
    """``div.u64`` and ``rem.u64`` of ``seed - tid`` (above 2**53) by
    ``1000 + tid``; stores both."""
    b = KernelBuilder("wide_division",
                      params=[("out", "u64"), ("seed", "u64")])
    out = b.load_param_ptr("out")
    tid = b.cvt("u64", "u32", b.special("%tid.x"))
    numerator = b.sub("u64", b.load_param("seed", "u64"), tid)
    denominator = b.add("u64", tid, Immediate(1000))
    for k, op in enumerate(("div", "rem")):
        cell = b.element_addr(out, b.add("u64", tid, Immediate(16 * k)), 8)
        b.st_global("u64", cell, getattr(b, op)("u64", numerator,
                                                denominator))
    return b.build()


def numbered_setup(memory):
    memory.write_array(BASE, np.arange(1024, dtype=np.uint64) * 3 + 5,
                       dtype="u64")


class TestFenceEmission:
    """What the per-thread JIT may leave out of a fence, checked
    against the interpreter byte for byte: a repeated fence pair whose
    registers nothing rewrote, and the 64-bit mask of an ``and``/
    ``or``/``xor`` whose operands are already in range."""

    @staticmethod
    def _run(kernel, params):
        outcomes = run_engines(kernel, (1, 1, 1), (16, 1, 1), params,
                               numbered_setup)
        assert_one_outcome(outcomes)
        return outcomes["jit"].memory

    @pytest.mark.parametrize("rewrite", ["address", "mask", "base"])
    def test_a_register_rewritten_between_two_fences(self, rewrite):
        memory = self._run(refence_kernel(rewrite),
                           [FENCE_MASK, BASE, BASE + 0x800])
        stored = {"address": BASE + 0xC00, "mask": BASE,
                  "base": BASE + 0x1800}[rewrite]
        expected = np.arange(0x100, 0x110, dtype=np.uint64) * 3 + 6
        assert np.array_equal(memory.read_array(stored, 16, dtype="u64"),
                              expected)

    def test_a_guarded_fence_pair(self):
        memory = self._run(guarded_fence_kernel(),
                           [FENCE_MASK, BASE, BASE + 0x1000])
        numbered = np.arange(1024, dtype=np.uint64) * 3 + 5
        loaded = numbered[:16].copy()
        loaded[0::2] = numbered[0x200:0x210:2]  # even threads: unfenced
        out = memory.read_array(BASE, 16, dtype="u64")
        assert np.array_equal(out[0::2], loaded[0::2])  # stored twice
        assert np.array_equal(out[1::2], loaded[1::2] + 1)
        moved = numbered[0x20:0x30].copy()
        moved[1::2] = loaded[1::2]  # odd threads, moved and fenced
        assert np.array_equal(memory.read_array(BASE + 0x100, 16, dtype="u64"),
                              moved)
        assert np.array_equal(
            memory.read_array(BASE + 0x1000, 0x200, dtype="u64"),
            numbered[0x200:0x400])  # nothing lands outside the fence

    def test_bitwise_ops_of_a_narrow_negative(self):
        memory = self._run(negative_bitwise_kernel(), [BASE])
        values = -1 - np.arange(16)
        out = memory.read_array(BASE, 48, dtype="u64")
        for k, combine in enumerate((np.bitwise_and, np.bitwise_or,
                                     np.bitwise_xor)):
            expected = [int(v) % (1 << 64)
                        for v in combine(values, 0x30F0)]
            assert list(out[16 * k:16 * k + 16]) == expected

    def test_a_register_written_at_64_and_at_32_bits(self):
        seed = (1 << 63) + 12345
        memory = self._run(mixed_width_kernel(), [BASE, seed])
        held = [seed if tid % 2 == 0 else -tid for tid in range(16)]
        out = memory.read_array(BASE, 32, dtype="u64")
        for k, combine in enumerate((int.__or__, int.__xor__)):
            expected = [combine(v, 0x5A) % (1 << 64) for v in held]
            assert list(out[16 * k:16 * k + 16]) == expected

    def test_wide_integer_division_is_exact(self):
        seed = (1 << 64) - 5
        memory = self._run(wide_division_kernel(), [BASE, seed])
        out = memory.read_array(BASE, 32, dtype="u64")
        pairs = [(seed - tid, 1000 + tid) for tid in range(16)]
        assert list(out[:16]) == [n // d for n, d in pairs]
        assert list(out[16:]) == [n % d for n, d in pairs]


# --------------------------------------------------------------------------
# Division by zero and non-finite immediates
# --------------------------------------------------------------------------


def quotient_kernel(opcode):
    """out[tid] = (tid + 7) <op> (5 - tid): thread 5 divides by zero."""
    dtype = opcode.rsplit(".", 1)[-1]
    b = KernelBuilder("quotient_" + opcode.replace(".", "_"),
                      params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    wide = b.cvt(dtype, "u32", tid) if dtype.endswith("64") else tid
    numerator = b.add(dtype, wide, Immediate(7))
    divisor = b.sub(dtype, Immediate(5), wide)
    b.st_global(dtype, b.element_addr(out, tid, isa.type_width(dtype)),
                b._binary(opcode, dtype, numerator, divisor))
    return b.build()


def float_quotient_kernel():
    """out[tid] = f32(tid - 5) / d, the divisor a parameter."""
    b = KernelBuilder("float_quotient", params=[("out", "u64"),
                                                ("d", "f32")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    numerator = b.cvt("f32", "s32", b.sub("s32", tid, Immediate(5)))
    b.st_global("f32", b.element_addr(out, tid, 4),
                b.div("f32", numerator, b.load_param("d", "f32")))
    return b.build()


#: A quiet NaN with its sign bit set, as an f32 immediate.
NEGATIVE_NAN = struct.unpack("<f", bytes.fromhex("0000c0ff"))[0]


def seeded_max_kernel():
    """nvcc's max reduction: best = -inf, then max with in[4t..4t+3];
    out[3t] = best, out[3t+1] = best + inf, out[3t+2] = -NaN."""
    b = KernelBuilder("seeded_max", params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    tid = b.special("%tid.x")
    best = b.mov("f32", Immediate(-math.inf))
    with b.loop(Immediate(4)) as trip:
        index = b.mad_lo("u32", tid, Immediate(4), trip)
        b.emit("max.f32", best, best,
               b.ld_global("f32", b.element_addr(inp, index, 4)))
    cell = b.mul("u32", tid, Immediate(3))
    b.st_global("f32", b.element_addr(out, cell, 4), best)
    b.st_global("f32", b.element_addr(out, cell, 4),
                b.add("f32", best, Immediate(math.inf)), offset=4)
    b.st_global("f32", b.element_addr(out, cell, 4),
                b.mov("f32", Immediate(NEGATIVE_NAN)), offset=8)
    return b.build()


class TestArithmeticEdges:
    """At 16 threads the JIT runs the block; at 64 the block engine
    runs it first and hands it back where numpy raises."""

    @pytest.mark.parametrize("threads", [16, 64])
    @pytest.mark.parametrize("opcode", ["div.u32", "rem.u32", "div.s32",
                                        "rem.s32", "div.u64", "rem.u64"])
    def test_integer_division_by_zero(self, opcode, threads):
        outcomes = run_engines(quotient_kernel(opcode), (1, 1, 1),
                               (threads, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        what = "remainder" if opcode.startswith("rem") else "division"
        error = outcomes["jit"].error
        assert isinstance(error, ExecutionError)
        assert str(error) == f"integer {what} by zero"
        dtype = opcode.rsplit(".", 1)[-1]
        stored = outcomes["jit"].memory.read_array(BASE, 6, dtype=dtype)
        assert stored[5] == 0  # the killed thread, and nothing after it
        assert stored[:5].any()

    @pytest.mark.parametrize("threads", [16, 64])
    @pytest.mark.parametrize("divisor", [0.0, -0.0], ids=["+0", "-0"])
    def test_float_division_by_zero(self, divisor, threads):
        outcomes = run_engines(float_quotient_kernel(), (1, 1, 1),
                               (threads, 1, 1), [BASE, divisor])
        assert_one_outcome(outcomes)
        assert outcomes["jit"].error is None
        stored = outcomes["jit"].memory.read_array(BASE, threads)
        sign = math.copysign(1.0, divisor)
        assert list(stored[:5]) == [-sign * math.inf] * 5
        assert stored[5:6].tobytes() == struct.pack("<f", math.nan)
        assert list(stored[6:]) == [sign * math.inf] * (threads - 6)

    @pytest.mark.parametrize("threads", [16, 64])
    def test_non_finite_immediates(self, threads):
        outcomes = run_engines(seeded_max_kernel(), (1, 1, 1),
                               (threads, 1, 1), [BASE, F1], library_setup)
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, 3 * threads)
        inputs = outcomes["jit"].memory.read_array(F1, 4 * threads)
        assert np.array_equal(stored[0::3], inputs.reshape(-1, 4).max(1))
        assert list(stored[1::3]) == [math.inf] * threads
        assert stored[2::3].tobytes() == struct.pack(
            "<f", NEGATIVE_NAN) * threads


# --------------------------------------------------------------------------
# Shift amounts and unsigned division
# --------------------------------------------------------------------------


def shift_kernel(ptype):
    """x = 0x80000001 | tid shifted by k on thread 0 and by tid on the
    others: out[3t] = x << a, out[3t+1] = x >> a (u32), out[3t+2] =
    x >> a (s32)."""
    b = KernelBuilder("shifts", params=[("out", "u64"), ("k", ptype)])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    x = b.or_("b32", tid, Immediate(0x80000001))
    amount = b.reg(ptype)
    b.emit(f"selp.{ptype}", amount, b.load_param("k", ptype), tid,
           b.setp("eq", "u32", tid, Immediate(0)))
    cell = b.mul("u32", tid, Immediate(3))
    for offset, opcode in enumerate(("shl.b32", "shr.u32", "shr.s32")):
        b.st_global("u32", b.element_addr(out, cell, 4),
                    b._binary(opcode, "u32", x, amount), offset=4 * offset)
    return b.build()


def unsigned_quotient_kernel(opcode):
    """r = 0 - (tid + 5) written by an s32 op; out[tid] = r <op> 2."""
    b = KernelBuilder("unsigned_" + opcode.replace(".", "_"),
                      params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    negative = b.sub("s32", Immediate(0), b.add("u32", tid, Immediate(5)))
    b.st_global("u32", b.element_addr(out, tid, 4),
                b._binary(opcode, "u32", negative, b.mov("u32", Immediate(2))))
    return b.build()


#: Runs a 64-bit shift by 2**40 on the interpreter and the JIT in a
#: child process whose address space is capped, and prints each
#: engine's (error type, stored word).
_WIDE_SHIFT_SCRIPT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from repro.ptx.ast import Immediate
from repro.ptx.builder import KernelBuilder
from tests.gpu.test_codegen_differential import BASE, run_engines
b = KernelBuilder("wide_shift", params=[("out", "u64"), ("k", "u64")])
out = b.load_param_ptr("out")
b.st_global("u64", out, b.shl("b64", b.mov("u64", Immediate(3)),
                              b.load_param("k", "u64")))
outcomes = run_engines(b.build(), (1, 1, 1), (1, 1, 1), [BASE, 1 << 40],
                       engines=("interpreter", "jit"))
json.dump({engine: [type(outcome.error).__name__,
                    outcome.memory.load_scalar(BASE, "u64")]
           for engine, outcome in outcomes.items()}, sys.stdout)
"""


class TestShiftsAndUnsignedDivision:
    """PTX reads a shift amount as u32 and clamps it to the width, and
    reads the operands of an unsigned div/rem as unsigned."""

    @pytest.mark.parametrize("ptype, k", [("u32", 32), ("u32", 0xFFFFFFFF),
                                          ("s32", -1)])
    def test_out_of_range_amounts(self, ptype, k):
        tracemalloc.start()
        try:
            outcomes = run_engines(shift_kernel(ptype), (1, 1, 1),
                                   (32, 1, 1), [BASE, k])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_one_outcome(outcomes)
        # A 2**32-bit integer is 512 MiB; the three outcomes hold a
        # 4 MiB copy of device memory each.
        assert peak < 64 << 20
        assert outcomes["jit"].error is None
        assert vectorised(outcomes["block"])
        stored = outcomes["jit"].memory.read_array(BASE, 96, dtype="u32")
        assert list(stored[:3]) == [0, 0, 0xFFFFFFFF]
        for tid in range(1, 32):
            x = 0x80000001 | tid
            assert list(stored[3 * tid:3 * tid + 3]) == [
                x << tid & 0xFFFFFFFF, x >> tid,
                (x - (1 << 32)) >> tid & 0xFFFFFFFF]

    def test_a_64_bit_amount_is_read_as_u32(self):
        """shl.b64 by a register holding 2**40 shifts by its low 32
        bits, 0; never a 2**40-bit integer."""
        root = str(pathlib.Path(__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.join(root, "src"), root])}
        child = subprocess.run(
            [sys.executable, "-c", _WIDE_SHIFT_SCRIPT], cwd=root, env=env,
            capture_output=True, text=True, timeout=300)
        assert child.returncode == 0, child.stderr
        assert json.loads(child.stdout) == {
            "interpreter": ["NoneType", 3], "jit": ["NoneType", 3]}

    @pytest.mark.parametrize("threads", [16, 64])
    @pytest.mark.parametrize("opcode", ["div.u32", "rem.u32"])
    def test_unsigned_division_of_a_negative_register(self, opcode,
                                                      threads):
        outcomes = run_engines(unsigned_quotient_kernel(opcode), (1, 1, 1),
                               (threads, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        stored = outcomes["jit"].memory.read_array(BASE, threads,
                                                   dtype="u32")
        unsigned = [(1 << 32) - tid - 5 for tid in range(threads)]
        if opcode == "div.u32":
            assert list(stored) == [value // 2 for value in unsigned]
        else:
            assert list(stored) == [value % 2 for value in unsigned]


# --------------------------------------------------------------------------
# Conversions: cvt writes its destination type
# --------------------------------------------------------------------------


def conversion_kernel(opcode):
    """out[tid] = cvt(inp[tid]), one 8-byte cell per thread (a narrow
    source is the cell's low bytes)."""
    dest, source = [part for part in opcode.split(".")
                    if part in isa.TYPE_WIDTHS]
    b = KernelBuilder("convert_" + opcode.replace(".", "_"),
                      params=[("out", "u64"), ("inp", "u64")])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    tid = b.special("%tid.x")
    value = b.reg(dest)
    b.emit(opcode, value, b.ld_global(source, b.element_addr(inp, tid, 8)))
    b.st_global(dest, b.element_addr(out, tid, 8), value)
    return b.build()


def negated_conversion_kernel():
    """n = -(tid + 1) written by an s32 op; out[2t] = cvt.u64.u32 n,
    out[2t+1] = cvt.rn.f64.u32 n."""
    b = KernelBuilder("negated_conversion", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    negative = b.unary("neg", "s32", b.add("u32", tid, Immediate(1)))
    cell = b.mul("u32", tid, Immediate(2))
    b.st_global("u64", b.element_addr(out, cell, 8),
                b.cvt("u64", "u32", negative))
    b.st_global("f64", b.element_addr(out, cell, 8),
                b.cvt("f64", "u32", negative), offset=8)
    return b.build()


FLOAT_INPUTS = [2.5, -2.5, 3.5, -0.5, 0.5, 1.7, -1.7, 1e10, -1e10,
                2147483647.5, -2147483648.5, 4294967295.5, 65535.5,
                -32768.5, 2.0 ** 63, -(2.0 ** 63), 2.0 ** 64,
                -(2.0 ** 64), math.nan, math.inf, -math.inf]

WIDE_INPUTS = [0, 1, 12345, (1 << 53) + 1, 0x7FFFFFFF, 0x80000000,
               0xFFFFFFFF, (1 << 32) + 5, (1 << 63) - 1, 1 << 63,
               (1 << 63) + 1, (1 << 64) - 2048, (1 << 64) - 1,
               0xFFFFFFFF80000000]

_ROUNDINGS = {"rni": np.rint, "rzi": np.trunc, "rmi": np.floor,
              "rpi": np.ceil}


def type_range(dtype):
    bits = isa.type_width(dtype) * 8
    if isa.is_signed(dtype):
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def ptx_float_to_int(value, mode, dtype):
    """PTX: NaN converts to 0, the rest is rounded and saturated."""
    low, high = type_range(dtype)
    if math.isnan(value):
        return 0
    if math.isinf(value):
        return low if value < 0 else high
    return min(max(int(_ROUNDINGS[mode](value)), low), high)


def as_type(value, dtype):
    """``value``'s low bits read as ``dtype``."""
    bits = isa.type_width(dtype) * 8
    value &= (1 << bits) - 1
    if isa.is_signed(dtype) and value >> (bits - 1):
        value -= 1 << bits
    return value


def float_inputs(memory):
    memory.write_array(F1, np.array(FLOAT_INPUTS), dtype="f64")


def wide_inputs(memory):
    memory.write_array(F1, np.array(WIDE_INPUTS, dtype=np.uint64),
                       dtype="u64")


def cells(outcome, count, dtype):
    memory = outcome.memory
    return [memory.load_scalar(BASE + 8 * index, dtype)
            for index in range(count)]


#: Why the block engine refuses a library or Rodinia kernel; it admits
#: every other one.
BLOCK_REFUSALS = {
    "rodinia_fan2": "register %f2 may be read before it is written",
}


def block_refusal(kernel):
    try:
        BlockCodegen(compile_kernel(kernel, SPEC), CostModel(SPEC)).generate()
    except Unsupported as reason:
        return str(reason)
    return None


def rodinia_kernels():
    kernels = {}
    for entry in rodinia_fatbin().ptx_entries():
        kernels.update(parse_module(entry.ptx_text()).kernels)
    return kernels


class TestConversions:
    """``cvt`` converts to its destination type from the source read as
    its own type, on every engine: PTX's rounding modifiers, NaN to 0
    and saturation from a float; extension and truncation between
    integers."""

    @pytest.mark.parametrize("dtype", ["s16", "u16", "s32", "u32", "s64",
                                       "u64"])
    @pytest.mark.parametrize("mode", sorted(_ROUNDINGS))
    def test_float_to_int(self, mode, dtype):
        count = len(FLOAT_INPUTS)
        outcomes = run_engines(conversion_kernel(f"cvt.{mode}.{dtype}.f64"),
                               (1, 1, 1), (count, 1, 1), [BASE, F1],
                               float_inputs)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert cells(outcomes["jit"], count, dtype) == [
            ptx_float_to_int(value, mode, dtype) for value in FLOAT_INPUTS]

    @pytest.mark.parametrize("opcode", ["cvt.rn.f32.u64", "cvt.rn.f32.s64",
                                        "cvt.rn.f64.u64", "cvt.rn.f64.s64"])
    def test_64_bit_integer_to_float(self, opcode):
        dest, source = opcode.split(".")[2:]
        count = len(WIDE_INPUTS)
        outcomes = run_engines(conversion_kernel(opcode), (1, 1, 1),
                               (count, 1, 1), [BASE, F1], wide_inputs)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        width = isa.type_width(dest)
        stored = [outcomes["jit"].memory.read(BASE + 8 * index, width)
                  for index in range(count)]
        # A double first, rounded to f32 by the store (section 9).
        assert stored == [
            struct.pack("<f" if width == 4 else "<d",
                        float(as_type(value, source)))
            for value in WIDE_INPUTS]

    @pytest.mark.parametrize("opcode", [
        "cvt.u32.u64", "cvt.s32.s64", "cvt.s32.u64", "cvt.u16.u64",
        "cvt.s16.s32", "cvt.s64.s32", "cvt.u64.s32", "cvt.u64.u32",
        "cvt.s32.u32", "cvt.u32.s16"])
    def test_integer_to_integer(self, opcode):
        dest, source = opcode.split(".")[1:]
        count = len(WIDE_INPUTS)
        outcomes = run_engines(conversion_kernel(opcode), (1, 1, 1),
                               (count, 1, 1), [BASE, F1], wide_inputs)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert cells(outcomes["jit"], count, dest) == [
            as_type(as_type(value, source), dest) for value in WIDE_INPUTS]

    def test_a_source_an_s32_op_wrote_negative(self):
        """A u32 source is read as u32 whichever op wrote it."""
        outcomes = run_engines(negated_conversion_kernel(), (1, 1, 1),
                               (32, 1, 1), [BASE])
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        memory = outcomes["jit"].memory
        for tid in range(32):
            unsigned = (1 << 32) - tid - 1
            assert memory.load_scalar(BASE + 16 * tid, "u64") == unsigned
            assert memory.load_scalar(BASE + 16 * tid + 8, "f64") == unsigned

    def test_a_cvt_naming_no_type_is_refused_at_load(self):
        b = KernelBuilder("untyped", params=[("out", "u64")])
        b.emit("cvt.rn", b.reg("u32"), b.special("%tid.x"))
        with pytest.raises(ExecutionError, match="cvt.rn names no type"):
            compile_kernel(b.build(), SPEC)

    def test_block_engine_admission(self):
        """Every library and Rodinia kernel but ``fan2`` runs on the
        block engine: no analysis of where a float register's value
        came from refuses any."""
        kernels = {**LIBRARY, **rodinia_kernels()}
        assert {name: block_refusal(kernel)
                for name, kernel in kernels.items()} == {
            name: BLOCK_REFUSALS.get(name) for name in kernels}

    def test_pf_resample_on_the_block_engine(self):
        """Rodinia's resampling kernel divides two converted integers;
        it runs vectorised, a tail of idle lanes included."""
        kernel = rodinia_kernels()["rodinia_pf_resample"]

        def setup(memory):
            memory.write_array(F1, np.cumsum(np.full(50, 0.02)))
            memory.write_array(F2, np.arange(50, dtype=np.float32))

        outcomes = run_engines(kernel, (1, 1, 1), (64, 1, 1),
                               [BASE, F1, F2, 0.01, 50], setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        chosen = outcomes["jit"].memory.read_array(BASE, 50)
        assert list(chosen[:3]) == [0.0, 1.0, 2.0]


# --------------------------------------------------------------------------
# Counted loops along the trip axis
# --------------------------------------------------------------------------

#: Elements between two lanes' rows in the trip-axis kernels' input.
ROW = 16


def trip_address(b, base, index, counter):
    """``base + 4 * index``, ``index`` of the counter's type."""
    if isa.type_width(counter) == 8:
        return b.add("s64", base, b.mul("u64", index, Immediate(4)))
    return b.element_addr(base, index, 4)


def lane_row(b, gid, counter):
    """``gid * ROW`` in the counter's type."""
    if isa.type_width(counter) == 8:
        gid = b.cvt(counter, "u32", gid)
    return b.mul(counter, gid, Immediate(ROW))


def reduction_kernel(form, counter="u32", acc=0.0, lane_count=None):
    """out[gid] = acc plus, for j < n, x[gid*ROW + j] (``add`` as
    ``acc + x``, ``add_second`` as ``x + acc``, ``direct`` into the
    accumulator itself) or x[...] * y[...] (``fma``); with
    ``lane_count="register"`` lane gid runs n + gid % 4 trips, with
    ``"ctaid"`` %ctaid.x trips, a lane value across a span."""
    b = KernelBuilder(f"reduce_{form}_{counter}", params=[
        ("out", "u64"), ("x", "u64"), ("y", "u64"), ("n", counter)])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    y = b.load_param_ptr("y")
    n = b.load_param("n", counter)
    gid = b.global_thread_id()
    if lane_count == "register":
        n = b.add(counter, n, b.and_("b32", gid, Immediate(3)))
    elif lane_count == "ctaid":
        n = SpecialReg("%ctaid.x")
    row = lane_row(b, gid, counter)
    total = b.mov("f32", Immediate(acc))
    with b.loop(n, counter) as j:
        index = b.add(counter, row, j)
        value = b.ld_global("f32", trip_address(b, x, index, counter))
        if form == "fma":
            other = b.ld_global("f32", trip_address(b, y, index, counter))
            b.emit("mov.f32", total, b.fma("f32", value, other, total))
        elif form == "add":
            b.emit("mov.f32", total, b.add("f32", total, value))
        elif form == "add_second":
            b.emit("mov.f32", total, b.add("f32", value, total))
        else:
            b.emit("add.f32", total, total, value)
    b.st_global("f32", b.element_addr(out, gid, 4), total)
    return b.build()


def mixed_trip_kernel(counter):
    """Per lane, for j < n: total += min(x[j], x[row + j]) *
    max(x[row + j], x[0]); shared += x[j] (a uniform accumulator); and
    an integer min/max (and for a 64-bit counter) of j and gid. The
    three land in out[3*gid..3*gid+2]."""
    b = KernelBuilder(f"mixed_trips_{counter}", params=[
        ("out", "u64"), ("x", "u64"), ("n", counter)])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", counter)
    gid = b.global_thread_id()
    row = lane_row(b, gid, counter)
    wide = isa.type_width(counter) == 8
    lane = b.cvt(counter, "u32", gid) if wide else gid
    total = b.mov("f32", Immediate(0.0))
    shared = b.mov("f32", Immediate(0.0))
    mixed = b.mov(counter, Immediate(0))
    with b.loop(n, counter) as j:
        column = b.ld_global("f32", trip_address(b, x, j, counter))
        cell = b.ld_global(
            "f32", trip_address(b, x, b.add(counter, row, j), counter))
        first = b.ld_global("f32", x)
        low = b.min_("f32", column, cell)
        high = b.max_("f32", cell, first)
        b.emit("mov.f32", total, b.fma("f32", low, high, total))
        b.emit("mov.f32", shared, b.add("f32", shared, column))
        if wide:
            last = b.and_("b64", j, b.or_("b64", lane, Immediate(1)))
        else:
            last = b.max_(counter, b.min_(counter, j, lane), Immediate(1))
        b.emit(f"mov.{counter}", mixed, last)
    cell = b.mul("u32", gid, Immediate(3))
    b.st_global("f32", b.element_addr(out, cell, 4), total)
    b.st_global("f32", b.element_addr(out, cell, 4), shared, offset=4)
    if wide:
        mixed = b.cvt("u32", counter, mixed)
    b.st_global("u32", b.element_addr(out, cell, 4), mixed, offset=8)
    return b.build()


def compacting_kernel():
    """out[2*gid] = sum of x[row + j]; then the lanes with gid % 3 == 0
    leave, and the others add x[row + j + 1] into out[2*gid + 1] over
    their compacted registers."""
    b = KernelBuilder("compacting_trips", params=[
        ("out", "u64"), ("x", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    row = lane_row(b, gid, "u32")
    cell = b.mul("u32", gid, Immediate(2))
    for pass_ in range(2):
        total = b.mov("f32", Immediate(0.0))
        with b.loop(n) as j:
            index = b.add("u32", b.add("u32", row, j), Immediate(pass_))
            value = b.ld_global("f32", b.element_addr(x, index, 4))
            b.emit("mov.f32", total, b.add("f32", total, value))
        b.st_global("f32", b.element_addr(out, cell, 4), total,
                    offset=4 * pass_)
        if not pass_:
            leave = b.fresh_label("leave")
            third = b.rem("u32", gid, Immediate(3))
            b.bra(leave, guard_reg=b.setp("eq", "u32", third, Immediate(0)))
    b.ret()
    b.label(leave)
    b.ret()
    return b.build()


def carried_kernel(kind):
    """A loop whose carried register is not a sum: ``max`` keeps the
    largest x, ``previous`` multiplies each x by the one before it."""
    b = KernelBuilder(f"carried_{kind}", params=[
        ("out", "u64"), ("x", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    row = lane_row(b, gid, "u32")
    total = b.mov("f32", Immediate(0.0))
    previous = b.mov("f32", Immediate(1.0))
    with b.loop(n) as j:
        value = b.ld_global("f32",
                            b.element_addr(x, b.add("u32", row, j), 4))
        if kind == "max":
            b.emit("max.f32", total, total, value)
        else:
            b.emit("mov.f32", total, b.fma("f32", previous, value, total))
            b.emit("mov.f32", previous, value)
    b.st_global("f32", b.element_addr(out, gid, 4), total)
    return b.build()


def endless_sum_kernel():
    """acc += x[gid] for j < n: with n = 2**32 - 1 a runaway."""
    b = KernelBuilder("endless_sum", params=[
        ("out", "u64"), ("x", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    value = b.ld_global("f32", b.element_addr(x, gid, 4))
    total = b.mov("f32", Immediate(0.0))
    with b.loop(n):
        b.emit("mov.f32", total, b.add("f32", total, value))
    b.st_global("f32", b.element_addr(out, gid, 4), total)
    return b.build()


def set_conflict_kernel():
    """acc += x[j * SET] * y[(j & 1) * SET] for j < n, addresses uniform
    and all in one L1 set, so the set's LRU order depends on the
    access order within each trip."""
    stride = 8192  # floats: 32 KiB, the L1's sets x line
    b = KernelBuilder("set_conflict", params=[
        ("out", "u64"), ("x", "u64"), ("y", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    y = b.load_param_ptr("y")
    n = b.load_param("n", "u32")
    total = b.mov("f32", Immediate(0.0))
    with b.loop(n) as j:
        first = b.ld_global("f32", b.element_addr(
            x, b.mul("u32", j, Immediate(stride)), 4))
        parity = b.and_("b32", j, Immediate(1))
        second = b.ld_global("f32", b.element_addr(
            y, b.mul("u32", parity, Immediate(stride)), 4))
        b.emit("mov.f32", total, b.fma("f32", first, second, total))
    b.st_global("f32", b.element_addr(out, b.global_thread_id(), 4), total)
    return b.build()


def unrolled_kernel():
    """out[2*gid] and out[2*gid + 1] = the sums of x[row + j] over even
    and odd j < n: the body advances j itself between the two."""
    b = KernelBuilder("unrolled_sums", params=[
        ("out", "u64"), ("x", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    row = lane_row(b, gid, "u32")
    sums = [b.mov("f32", Immediate(0.0)) for _ in range(2)]
    with b.loop(n) as j:
        for half, total in enumerate(sums):
            value = b.ld_global("f32",
                                b.element_addr(x, b.add("u32", row, j), 4))
            b.emit("add.f32", total, total, value)
            if not half:
                b.emit("add.u32", j, j, Immediate(1))
    cell = b.mul("u32", gid, Immediate(2))
    for half, total in enumerate(sums):
        b.st_global("f32", b.element_addr(out, cell, 4), total,
                    offset=4 * half)
    return b.build()


def predicate_reading_kernel():
    """out[gid] = the sum over j < n of selp(1.0, x[row + j], p), where p
    is the loop header's own predicate, true before the loop: false on
    every trip the body runs."""
    b = KernelBuilder("predicate_trips", params=[
        ("out", "u64"), ("x", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    row = lane_row(b, gid, "u32")
    total = b.mov("f32", Immediate(0.0))
    done = b.setp("eq", "u32", n, n)
    j = b.mov("u32", Immediate(0))
    head, leave = b.fresh_label("loop"), b.fresh_label("done")
    b.label(head)
    b.emit("setp.ge.u32", done, j, n)
    b.bra(leave, guard_reg=done)
    value = b.ld_global("f32", b.element_addr(x, b.add("u32", row, j), 4))
    picked = b.reg("f32")
    b.emit("selp.f32", picked, Immediate(1.0), value, done)
    b.emit("add.f32", total, total, picked)
    b.emit("mov.u32", j, b.add("u32", j, Immediate(1)))
    b.bra(head)
    b.label(leave)
    b.st_global("f32", b.element_addr(out, gid, 4), total)
    return b.build()


def uniform_nan_kernel():
    """s = x[j] + y[j] and total += s for j < n, both loads at uniform
    addresses; out[2*gid] = total, out[2*gid + 1] = the last s."""
    b = KernelBuilder("uniform_nans", params=[
        ("out", "u64"), ("x", "u64"), ("y", "u64"), ("n", "u32")])
    out = b.load_param_ptr("out")
    x = b.load_param_ptr("x")
    y = b.load_param_ptr("y")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
    total = b.mov("f32", Immediate(0.0))
    last = b.mov("f32", Immediate(0.0))
    with b.loop(n) as j:
        both = b.add("f32", b.ld_global("f32", b.element_addr(x, j, 4)),
                     b.ld_global("f32", b.element_addr(y, j, 4)))
        b.emit("mov.f32", last, both)
        b.emit("mov.f32", total, b.add("f32", total, both))
    cell = b.mul("u32", gid, Immediate(2))
    b.st_global("f32", b.element_addr(out, cell, 4), total)
    b.st_global("f32", b.element_addr(out, cell, 4), last, offset=4)
    return b.build()


def special_rows(memory):
    """x and y rows of 64 lanes: lane 0 all -0.0, lanes 1-3 a NaN, +inf
    and -inf, lane 4 f32 subnormals, lane 5 a sum beyond the f32 range
    (and y = 1 there); the rest normal."""
    rng = np.random.RandomState(11)
    x = rng.randn(64, ROW).astype(np.float32)
    y = rng.randn(64, ROW).astype(np.float32)
    x[0] = -0.0
    x[1, 5] = np.nan
    x[2, 3] = np.inf
    x[3, 7] = -np.inf
    x[4] = np.float32(1e-40) * np.arange(1, ROW + 1, dtype=np.float32)
    x[5] = 3e38
    y[5] = 1.0
    memory.write_array(F1, x.reshape(-1))
    memory.write_array(F2, y.reshape(-1))


def trip_chunks():
    """A patch that records, in its ``chunks`` list, the trip count of
    every chunk the trip axis runs on executors made under it."""
    chunks = []

    def column(trips):
        chunks.append(trips)
        return blockrt._tcol(trips)

    patch = mock.patch.dict(blockrt.VALUE_ENV, {"_tcol": column})
    patch.chunks = chunks
    return patch


#: Counted loops each library and Rodinia kernel may run along the trip
#: axis (``KernelCode.trip_loops``; None: no block function). The other
#: kernels have none: a store, a branch, an SFU op or a carried maximum
#: in the body keeps theirs per trip.
TRIP_LOOPS = {
    "cublas_sgemm": 1, "cudnn_bias_grad": 1, "cudnn_conv2d_bwd_filter": 1,
    "cudnn_conv2d_fwd": 1, "rodinia_fan1": 1, "rodinia_fan2": None,
}


class TestTripAxis:
    """A counted loop whose body is straight-line loads and arithmetic,
    with only the counter and float sums carried, runs a chunk of trips
    at once when the whole group reaches it with a uniform count. The
    outcome is the other engines', byte for byte; what does not qualify
    runs trip by trip."""

    @pytest.mark.parametrize("acc", [0.0, -0.0], ids=["+0", "-0"])
    @pytest.mark.parametrize("form", ["add", "add_second", "direct", "fma"])
    def test_reductions_over_special_values(self, form, acc):
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(reduction_kernel(form, acc=acc),
                                   (1, 1, 1), (64, 1, 1),
                                   [OUT, F1, F2, ROW], special_rows)
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert vectorised(block) and spans(block) == (1, 0)
        assert patch.chunks == [ROW]
        stored = block.memory.read_array(OUT, 64)
        assert math.isnan(stored[1]) and stored[5] == math.inf
        if form != "fma":  # x * y has y's signs
            assert list(stored[2:4]) == [math.inf, -math.inf]
            assert math.copysign(1.0, stored[0]) == math.copysign(1.0, acc)

    @pytest.mark.parametrize("trips", [0, 1, 2, 3, 4, "chunk", "chunk+1"])
    def test_trip_counts_and_chunks(self, trips):
        chunk = blockgen.TRIP_CELLS // 32
        count = {"chunk": chunk, "chunk+1": chunk + 1}.get(trips, trips)
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(reduction_kernel("fma"), (1, 1, 1),
                                   (32, 1, 1), [OUT, F1, F2, count],
                                   library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)
        expected = {0: [], 1: [], 2: [], 3: [], 4: [4], chunk: [chunk],
                    chunk + 1: [chunk, 1]}[count]
        assert patch.chunks == expected

    @pytest.mark.parametrize("counter", ["u32", "s32", "u64"])
    def test_uniform_loads_min_max_and_counter_types(self, counter):
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(mixed_trip_kernel(counter), (2, 1, 1),
                                   (32, 1, 1), [OUT, F1, 12],
                                   library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)
        assert patch.chunks == [12]

    def test_replay_order_within_a_trip(self):
        """Each trip's loads are logged in program order, trip after
        trip: one L1 set's LRU order (compared line for line) tells."""
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(set_conflict_kernel(), (1, 1, 1),
                                   (32, 1, 1), [OUT, F1, F1 + (1 << 20), 8],
                                   library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert patch.chunks == [8]

    def test_lanes_leaving_after_a_loop_are_compacted(self):
        """Registers leave the trip axis as lane vectors or scalars:
        the compaction that follows indexes them by lane."""
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(compacting_kernel(), (1, 1, 1),
                                   (64, 1, 1), [OUT, F1, 9], library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert patch.chunks == [9, 9]

    @pytest.mark.parametrize("count", ["register", "ctaid"])
    def test_a_lane_varying_count_runs_per_trip(self, count):
        patch = trip_chunks()
        with patch:
            outcomes = run_engines(
                reduction_kernel("add", lane_count=count), (6, 1, 1),
                (32, 1, 1), [OUT, F1, F2, 10], library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)
        assert patch.chunks == []

    @pytest.mark.parametrize("kind", ["max", "previous"])
    def test_a_carried_register_that_is_not_a_sum(self, kind):
        kernel = carried_kernel(kind)
        generator = BlockCodegen(compile_kernel(kernel, SPEC), CostModel(SPEC))
        generator.generate()
        assert generator.trip_loops == {}
        outcomes = run_engines(kernel, (1, 1, 1), (64, 1, 1),
                               [OUT, F1, 10], library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])

    @pytest.mark.parametrize("kernel", [unrolled_kernel,
                                        predicate_reading_kernel])
    def test_a_body_the_header_does_not_describe(self, kernel):
        """A body that advances the counter itself, or reads the
        predicate the header's test writes, runs per trip: the arm runs
        before that test and steps the counter once per trip."""
        generator = BlockCodegen(compile_kernel(kernel(), SPEC),
                                 CostModel(SPEC))
        generator.generate()
        assert generator.trip_loops == {}
        outcomes = run_engines(kernel(), (1, 1, 1), (32, 1, 1),
                               [OUT, F1, 8], library_setup)
        assert_one_outcome(outcomes)
        assert vectorised(outcomes["block"])

    def test_two_uniform_nans_meeting(self):
        """Of two NaNs an f32 add meets, numpy and CPython's specialised
        float add keep the first operand's, its generic add the second's:
        a per-thread function's first adds in a process differ from its
        later ones. The trip axis keeps the first, as a warm JIT does,
        byte for byte."""
        def setup(memory):
            library_setup(memory)
            signs = np.array([0xFFC00000, 0x7FC00000], dtype=np.uint32)
            x, y = signs.view(np.float32)
            memory.write_array(F1 + 4 * 15, np.array([x], np.float32))
            memory.write_array(F2 + 4 * 15, np.array([y], np.float32))

        launch = (uniform_nan_kernel(), (1, 1, 1), (32, 1, 1),
                  [OUT, F1, F2, 16], setup)
        patch = trip_chunks()
        with patch:
            block = Outcome("block", *launch)
        warm = [Outcome("jit", *launch) for _ in range(2)][-1]
        assert_identical(warm, block)
        assert vectorised(block) and patch.chunks == [16]
        stored = block.memory.read_array(OUT, 64, dtype="u32")
        assert set(stored.tolist()) == {0xFFC00000}

    def test_a_loop_beyond_the_step_budget(self):
        """2**32 - 1 trips: never a matrix of them. The attempt gives
        up at the header, as the trips cannot fit its step budget, and
        the per-thread watchdog ends the kernel (both lowered 100-fold,
        which the generated code embeds, to keep the test short)."""
        patch = trip_chunks()
        watchdog = codegen.MAX_BLOCK_STEPS // 100
        tracemalloc.start()
        try:
            with patch, mock.patch.object(
                    codegen, "MAX_BLOCK_STEPS", watchdog), mock.patch.object(
                    blockgen, "ATTEMPT_STEPS", watchdog >> 4):
                outcomes = run_engines(endless_sum_kernel(), (1, 1, 1),
                                       (32, 1, 1), [OUT, F1, 0xFFFFFFFF],
                                       library_setup,
                                       engines=("jit", "block"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_one_outcome(outcomes)
        block = outcomes["block"]
        assert "runaway" in str(block.error)
        assert block.executor.engine_blocks == {
            "block": 0, "thread": 1, "fallback": 1}
        assert patch.chunks == []
        assert peak < 64 << 20

    def test_trip_loops_of_every_library_and_rodinia_kernel(self):
        kernels = {**LIBRARY, **rodinia_kernels()}
        found = {}
        for name, kernel in kernels.items():
            compiled = compile_kernel(kernel, SPEC)
            code = codegen.kernel_code(compiled, CostModel(SPEC))
            code.bind_block(compiled, CostModel(SPEC), {})
            found[name] = code.trip_loops
        assert found == {name: TRIP_LOOPS.get(name, 0) for name in kernels}
