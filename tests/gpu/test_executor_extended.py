"""Extended executor coverage: f64, atomics variants, local memory,
division semantics, special registers — run on all three engines."""

import math

import numpy as np
import pytest

from repro.gpu.executor import compile_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.ast import Immediate, MemRef
from repro.ptx.builder import KernelBuilder

from tests.conftest import ENGINES, forced_engine

SPEC = QUADRO_RTX_A4000
BASE = 0x7F_A000_0000_00


@pytest.fixture(params=ENGINES)
def run(request):
    def runner(kernel, grid, block, params, setup=None):
        memory = GlobalMemory(1 << 22)
        if setup:
            setup(memory)
        executor = make(SPEC, memory)
        compiled = compile_kernel(kernel, SPEC)
        result = executor.launch(compiled, grid, block, params)
        return memory, result

    with forced_engine(request.param) as make:
        yield runner


class TestFloat64:
    def test_f64_arithmetic(self, run):
        b = KernelBuilder("f64ops", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        x = b.mov("f64", Immediate(1.25))
        y = b.mul("f64", x, Immediate(3.0))
        z = b.add("f64", y, Immediate(0.0625))
        b.st_global("f64", out, z)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "f64") == 1.25 * 3.0 + 0.0625

    def test_f64_load_store_roundtrip(self, run):
        b = KernelBuilder("f64copy", params=[("dst", "u64"),
                                             ("src", "u64")])
        dst = b.load_param_ptr("dst")
        src = b.load_param_ptr("src")
        b.st_global("f64", dst, b.ld_global("f64", src))

        def setup(memory):
            memory.store_scalar(BASE + 1024, "f64", math.pi)

        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1),
                        [BASE, BASE + 1024], setup)
        assert memory.load_scalar(BASE, "f64") == math.pi


class TestAtomics:
    def _atomic_kernel(self, mode):
        b = KernelBuilder("atomics", params=[("target", "u64"),
                                             ("value", "u32")])
        target = b.load_param_ptr("target")
        value = b.load_param("value", "u32")
        dest = b.reg("u32")
        b.emit(f"atom.global.{mode}.u32", dest, MemRef(target), value)
        return b.build()

    def test_atom_max(self, run):
        def setup(memory):
            memory.store_scalar(BASE, "u32", 50)

        memory, _ = run(self._atomic_kernel("max"), (1, 1, 1),
                        (1, 1, 1), [BASE, 99], setup)
        assert memory.load_scalar(BASE, "u32") == 99

    def test_atom_min(self, run):
        def setup(memory):
            memory.store_scalar(BASE, "u32", 50)

        memory, _ = run(self._atomic_kernel("min"), (1, 1, 1),
                        (1, 1, 1), [BASE, 7], setup)
        assert memory.load_scalar(BASE, "u32") == 7

    def test_atom_exch(self, run):
        def setup(memory):
            memory.store_scalar(BASE, "u32", 123)

        memory, _ = run(self._atomic_kernel("exch"), (1, 1, 1),
                        (1, 1, 1), [BASE, 456], setup)
        assert memory.load_scalar(BASE, "u32") == 456

    def test_atomic_add_many_threads_exact(self, run):
        b = KernelBuilder("count", params=[("counter", "u64")])
        counter = b.load_param_ptr("counter")
        b.atom_add_global("u32", counter, 1)
        memory, _ = run(b.build(), (4, 1, 1), (64, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "u32") == 256


class TestLocalMemory:
    def test_local_roundtrip(self, run):
        b = KernelBuilder("locals", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        address = b.mov("u64", Immediate(64))
        value = b.mov("f32", Immediate(2.5))
        b.emit("st.local.f32", MemRef(address), value)
        loaded = b.reg("f32")
        b.emit("ld.local.f32", loaded, MemRef(address))
        b.st_global("f32", out, loaded)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "f32") == 2.5

    def test_local_private_per_thread(self, run):
        """Each thread's local buffer is its own: thread i writes i and
        reads back i even though all use local offset 0."""
        b = KernelBuilder("priv", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        tid = b.special("%tid.x")
        zero_addr = b.mov("u64", Immediate(0))
        b.emit("st.local.u32", MemRef(zero_addr), tid)
        loaded = b.reg("u32")
        b.emit("ld.local.u32", loaded, MemRef(zero_addr))
        b.st_global("u32", b.element_addr(out, tid, 4), loaded)
        memory, _ = run(b.build(), (1, 1, 1), (16, 1, 1), [BASE])
        out = memory.read_array(BASE, 16, dtype="u32")
        assert np.array_equal(out, np.arange(16, dtype=np.uint32))


class TestDivisionSemantics:
    def test_signed_division_truncates_toward_zero(self, run):
        b = KernelBuilder("sdiv", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        q = b.div("s32", Immediate(-7), Immediate(2))  # PTX: -3
        b.st_global("s32", out, q)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "s32") == -3

    def test_signed_remainder_sign(self, run):
        b = KernelBuilder("srem", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        r = b.rem("s32", Immediate(-7), Immediate(2))  # PTX: -1
        b.st_global("s32", out, r)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "s32") == -1

    def test_unsigned_division(self, run):
        b = KernelBuilder("udiv", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        q = b.div("u32", Immediate(100), Immediate(7))
        b.st_global("u32", out, q)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "u32") == 14


class TestSpecialRegisters:
    def test_all_dims_visible(self, run):
        b = KernelBuilder("dims", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        values = [
            b.special("%tid.x"), b.special("%tid.y"),
            b.special("%ntid.x"), b.special("%ntid.y"),
            b.special("%ctaid.x"), b.special("%nctaid.x"),
            b.special("%laneid"), b.special("%warpid"),
        ]
        for index, value in enumerate(values):
            b.st_global("u32", out, value, offset=4 * index)
        memory, _ = run(b.build(), (3, 1, 1), (4, 2, 1), [BASE])
        # The last block/thread to execute writes (tid 3,1 of block 2).
        out = memory.read_array(BASE, 8, dtype="u32")
        assert out[2] == 4      # ntid.x
        assert out[3] == 2      # ntid.y
        assert out[5] == 3      # nctaid.x

    def test_grid_coverage_unique(self, run):
        """Every (block, thread) combination writes its own slot —
        the grid enumeration is complete and distinct."""
        b = KernelBuilder("cover", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        gid = b.global_thread_id()
        b.st_global("u32", b.element_addr(out, gid, 4),
                    b.add("u32", gid, Immediate(1)))
        memory, _ = run(b.build(), (4, 1, 1), (32, 1, 1), [BASE])
        values = memory.read_array(BASE, 128, dtype="u32")
        assert np.array_equal(values,
                              np.arange(1, 129, dtype=np.uint32))


class TestMinMaxFloat:
    def test_float_min_max(self, run):
        b = KernelBuilder("mm", params=[("out", "u64")])
        out = b.load_param_ptr("out")
        lo = b.min_("f32", Immediate(2.0), Immediate(-3.0))
        hi = b.max_("f32", Immediate(2.0), Immediate(-3.0))
        b.st_global("f32", out, lo)
        b.st_global("f32", out, hi, offset=4)
        memory, _ = run(b.build(), (1, 1, 1), (1, 1, 1), [BASE])
        assert memory.load_scalar(BASE, "f32") == -3.0
        assert memory.load_scalar(BASE + 4, "f32") == 2.0
