"""Differential tests over the simulator's three engines.

- interpreter vs per-thread JIT: equal memory effects (up to the one
  tolerated f32 rounding difference), instruction counts and cycles;
- per-thread JIT vs block engine: *exactly* equal - every byte, every
  counter, every cache line - on library kernels, divergent control
  flow, fenced kernels under attack, and kernels that fault (where the
  block engine must hand the block back and the same exception and
  the same partial memory state must come out).

Random kernels come from the same builder-based strategy as the
round-trip property tests.
"""

import json
import resource
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.patcher import PTXPatcher
from repro.core.policy import FencingMode
from repro.errors import ExecutionError, MemoryFault
from repro.gpu import blockrt
from repro.gpu.executor import SPAN_LANES, compile_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.libs.kernels import blas, dnn, fft, rand as rand_kernels
from repro.ptx.ast import Guard, Immediate, Instruction, MemRef, SharedDecl
from repro.ptx.builder import KernelBuilder, build_module

from tests.conftest import (
    ENGINES,
    forced_engine,
    reader_kernel,
    saxpy_kernel,
    writer_kernel,
)
from tests.core.test_patch_semantics import MODES, PART_SIZE, extra_params
from tests.gpu.kernel_fuzz import structured_kernel
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
                 memory_bytes=MEMORY_BYTES, max_blocks=None):
        self.memory = GlobalMemory(memory_bytes)
        if setup:
            setup(self.memory)
        self.result = None
        self.error = None
        with forced_engine(engine) as make:
            self.executor = make(SPEC, self.memory)
            self.compiled = compile_kernel(kernel, SPEC)
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


def assert_equivalent(reference, jit):
    """Interpreter vs JIT: the engines' only tolerated divergence is
    that f32 chains round per-op in the interpreter but once in the
    JIT, so stored floats may differ in the last ulps. Integer bytes
    still compare exactly through the f32 view (equal bits)."""
    assert reference.error is None and jit.error is None
    if reference.bytes != jit.bytes:
        a = np.frombuffer(reference.bytes, dtype=np.float32)
        b = np.frombuffer(jit.bytes, dtype=np.float32)
        both_nan = np.isnan(a) & np.isnan(b)
        assert np.all(
            np.isclose(a, b, rtol=1e-3, atol=1e-30) | both_nan
        ), "memory effects diverge beyond f32 rounding"
    res_a, res_b = reference.result, jit.result
    assert res_a.instructions == res_b.instructions
    assert res_a.loads == res_b.loads
    assert res_a.stores == res_b.stores
    assert res_a.total_warp_cycles == pytest.approx(
        res_b.total_warp_cycles
    )
    assert res_a.level_counts == res_b.level_counts


def assert_identical(jit, block):
    """Per-thread JIT vs block engine: nothing may differ."""
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])

    def test_every_entry_kernel_has_a_launch(self):
        entries = {name for name, kernel in LIBRARY.items()
                   if kernel.is_entry}
        assert entries == set(LIBRARY_LAUNCHES)

    @pytest.mark.parametrize("kernel_name", sorted(LIBRARY_LAUNCHES))
    def test_every_library_kernel(self, kernel_name):
        grid, block, params = LIBRARY_LAUNCHES[kernel_name]
        outcomes = run_engines(LIBRARY[kernel_name], grid, block, params,
                               library_setup)
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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


def collatz_kernel():
    """out[i] = steps of the 3n+1 walk from in[i]: a loop whose trip
    count depends on the data, so lanes leave it one by one."""
    b = KernelBuilder("collatz", params=[
        ("out", "u64"), ("inp", "u64"), ("n", "u32"),
    ])
    out = b.load_param_ptr("out")
    inp = b.load_param_ptr("inp")
    n = b.load_param("n", "u32")
    gid = b.global_thread_id()
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        interp, jit = outcomes["interpreter"], outcomes["jit"]
        # f32 stores may differ in the last ulp (the JIT evaluates f32
        # chains in double precision; the interpreter rounds each op).
        a = np.frombuffer(interp.bytes, dtype=np.float32)
        b = np.frombuffer(jit.bytes, dtype=np.float32)
        both_nan = np.isnan(a) & np.isnan(b)
        close = np.isclose(a, b, rtol=1e-4, atol=1e-30) | both_nan
        finite_mismatch = ~close & np.isfinite(a) & np.isfinite(b)
        assert not finite_mismatch.any()
        assert interp.result.instructions == jit.result.instructions
        assert interp.result.total_warp_cycles == pytest.approx(
            jit.result.total_warp_cycles
        )
        assert_identical(jit, outcomes["block"])
        assert vectorised(outcomes["block"])

    @given(random_straightline_kernel())
    @settings(max_examples=15, deadline=None)
    def test_random_kernels_tail_block(self, module):
        outcomes = run_engines(
            module.kernels["rk"], (2, 1, 1), (48, 1, 1), [BASE, 70, -2.5],
            memory_bytes=4096, engines=("jit", "block"))
        assert_identical(outcomes["jit"], outcomes["block"])


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
        # the comparison above vacuous - unless the draw overflowed a
        # float, which Python and numpy report differently by design.
        stored = np.frombuffer(jit.bytes, dtype=np.float32)
        if jit.error is None and np.isfinite(stored).all():
            assert vectorised(block)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=10, deadline=None)
    def test_structured_kernels_match_the_interpreter(self, rng):
        kernel = structured_kernel(rng)
        outcomes = run_engines(
            kernel, (2, 1, 1), (32, 1, 1),
            [BASE + (1 << 20), F1, 50, 0.75, rng.getrandbits(62)],
            library_setup, engines=("interpreter", "jit"))
        jit, reference = outcomes["jit"], outcomes["interpreter"]
        assert jit.result.instructions == reference.result.instructions
        assert jit.result.total_warp_cycles == pytest.approx(
            reference.result.total_warp_cycles)


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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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


class TestFaultsAndFallback:
    """What the block engine cannot reproduce, it must not attempt to:
    the per-thread JIT re-runs the block and owns the outcome."""

    def test_misaligned_access(self):
        outcomes = run_engines(
            saxpy_kernel(), (2, 1, 1), (64, 1, 1),
            [BASE + 2, BASE + 65536, 2.0, 100],
            engines=ENGINES)
        for outcome in outcomes.values():
            assert isinstance(outcome.error, MemoryFault)
            assert "misaligned f32" in str(outcome.error)
        assert_identical(outcomes["jit"], outcomes["block"])

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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        """A double too large for f32: struct.pack raises in the JIT."""
        b = KernelBuilder("overflow", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        tid = b.special("%tid.x")
        big = b.mul("f32", b.cvt("f32", "u32", tid), Immediate(1e38))
        b.st_global("f32", b.element_addr(out, tid, 4),
                    b.mul("f32", big, Immediate(1e3)))
        outcomes = run_engines(b.build(), (1, 1, 1), (64, 1, 1), [BASE],
                               engines=("jit", "block"))
        assert isinstance(outcomes["jit"].error, OverflowError)
        assert_identical(outcomes["jit"], outcomes["block"])

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
    to it), store two bytes off, or store a double f32 cannot hold."""
    b = KernelBuilder(f"trouble_{kind}", params=[("out", "u64"),
                                                 ("bad", "u32")])
    out = b.load_param_ptr("out")
    bad = b.load_param("bad", "u32")
    gid = b.global_thread_id()
    in_block_2 = b.setp("eq", "u32", b.special("%ctaid.x"), Immediate(2))
    address = b.element_addr(out, gid, 4)
    if kind == "overflow":
        huge = b.reg("f32")
        b.emit("selp.f32", huge, Immediate(1e38), Immediate(1.0), in_block_2)
        b.st_global("f32", address, b.mul("f32", huge, Immediate(1e3)))
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
        assert vectorised(outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)

    @pytest.mark.parametrize("chunk,sorts", [(1, 5), (150, 2), (1 << 14, 1)])
    def test_divergent_commit_is_sorted_a_few_blocks_at_a_time(
            self, chunk, sorts):
        """Accesses made under a mask are put in thread order by a
        sort; a span sorts about ``COMMIT_CHUNK`` of them at once, cut
        between blocks, so its commit needs the memory a block's did."""
        b = KernelBuilder("odd_store", params=[("out", "u64"),
                                               ("inp", "u64")])
        out = b.load_param_ptr("out")
        inp = b.load_param_ptr("inp")
        gid = b.global_thread_id()
        value = b.ld_global("u32", b.element_addr(inp, gid, 4))
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
        assert spans(outcomes["block"]) == (1, 0)

    def test_sampled_blocks_share_a_span(self):
        """``max_blocks`` picks blocks 0, 4, 8, 12 of 16: %ctaid is
        whatever the selected blocks say, not a range."""
        outcomes = run_engines(
            LIBRARY["cublas_sgemm"], (16, 1, 1), (64, 1, 1),
            [OUT, F1, F2, 32, 30, 9, 9, 1, 30, 1, 0.5, 2.0],
            library_setup, max_blocks=4)
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
        block = outcomes["block"]
        assert block.result.sampled_fraction == 0.25
        assert block.executor.engine_blocks["block"] == 4
        assert spans(block) == (1, 0)

    def test_grid_longer_than_the_lane_budget(self):
        blocks = SPAN_LANES // 256 + 1
        outcomes = run_engines(
            saxpy_kernel(), (blocks, 1, 1), (256, 1, 1),
            [F2, F1, 2.0, 256 * blocks - 3], library_setup)
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
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
        assert_equivalent(outcomes["interpreter"], outcomes["jit"])
        assert_identical(outcomes["jit"], outcomes["block"])
        block = outcomes["block"]
        assert block.executor.engine_blocks == {
            "block": 3, "thread": 0, "fallback": 0}
        assert spans(block) == (4, 1)
        out = block.memory.read_array(BASE, 64, dtype="u32")
        assert (out == 3).all()  # the last block's stamp

    @pytest.mark.parametrize("kind,error", [
        ("fault", MemoryFault), ("misaligned", MemoryFault),
        ("overflow", OverflowError)])
    def test_trouble_in_block_2_of_5(self, kind, error):
        """Same exception, same partial memory: blocks 0 and 1
        committed, block 2 up to the offending thread, nothing of
        blocks 3 and 4."""
        bad = {"fault": MEMORY_BYTES, "misaligned": 2, "overflow": 0}[kind]
        outcomes = run_engines(trouble_kernel(kind), (5, 1, 1), (64, 1, 1),
                               [BASE, bad])
        for outcome in outcomes.values():
            assert isinstance(outcome.error, error)
        assert (str(outcomes["interpreter"].error)
                == str(outcomes["jit"].error))
        assert_identical(outcomes["jit"], outcomes["block"])
        block = outcomes["block"]
        assert block.executor.engine_blocks == {
            "block": 2, "thread": 1, "fallback": 1}
        assert spans(block) == (4, 1)
        if kind != "overflow":
            out = block.memory.read_array(BASE, 320, dtype="u32")
            assert list(out[:168]) == list(range(1, 169))
            assert not out[168:].any()

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
            assert_equivalent(outcomes["interpreter"], outcomes["jit"])
            assert_identical(outcomes["jit"], outcomes["block"])
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
        stored = np.frombuffer(jit.bytes, dtype=np.float32)
        if jit.error is None and np.isfinite(stored).all():
            assert vectorised(block)
            assert spans(block) == (1, 0)


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
