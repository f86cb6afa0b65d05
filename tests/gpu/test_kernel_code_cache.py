"""Generated code is cached by kernel content, not by object identity.

The previous cache was ``id(compiled) -> function`` on the executor and
never pruned: it grew by one entry per loaded module (a leak under
session churn), and a recycled ``id`` could hand a kernel the function
generated for a dead one, whose module globals were baked in.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.gpu import codegen
from repro.gpu.executor import compile_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx.ast import MemRef, Symbol
from repro.ptx.builder import KernelBuilder

from tests.conftest import forced_engine, saxpy_kernel, writer_kernel

SPEC = QUADRO_RTX_A4000
BASE = 0x7F_A000_0000_00

GENERATED = ("jit", "block")


def table_reader_kernel():
    """out[tid] = table[tid], ``table`` a module-scope symbol."""
    b = KernelBuilder("table_reader", params=[("out", "u64")])
    out = b.load_param_ptr("out")
    tid = b.special("%tid.x")
    table = b.mov("u64", Symbol("table"))
    value = b.ld_global("u32", b.element_addr(table, tid, 4))
    b.st_global("u32", b.element_addr(out, tid, 4), value)
    return b.build()


def load_module(address):
    """What the driver does: compile, then bind module globals."""
    compiled = compile_kernel(table_reader_kernel(), SPEC)
    compiled.global_symbols["table"] = address
    return compiled


@pytest.mark.parametrize("engine", GENERATED)
class TestSharing:
    def test_equal_kernels_share_one_code_object(self, engine):
        """Two modules, two devices: one code object, and each launch
        sees its own module's symbol addresses."""
        outputs = []
        functions = []
        modules = []  # both stay loaded
        with forced_engine(engine) as make:
            for table_at in (BASE + 4096, BASE + 8192):
                memory = GlobalMemory(1 << 20)
                memory.write_array(
                    BASE + 4096, np.arange(64, dtype=np.uint32), dtype="u32")
                memory.write_array(
                    BASE + 8192, np.arange(64, dtype=np.uint32) + 1000,
                    dtype="u32")
                executor = make(SPEC, memory)
                compiled = load_module(table_at)
                modules.append(compiled)
                executor.launch(compiled, (1, 1, 1), (64, 1, 1), [BASE])
                outputs.append(memory.read_array(BASE, 64, dtype="u32"))
                engines = executor._engines[compiled.code]
                functions.append(
                    engines.thread if engine == "jit" else engines.block[0])
        assert modules[0].code is modules[1].code
        assert functions[0] is not functions[1]  # bound per executor
        assert functions[0].__code__ is functions[1].__code__
        assert list(outputs[0]) == list(range(64))
        assert list(outputs[1]) == list(range(1000, 1064))

    def test_different_content_is_not_shared(self, engine):
        saxpy = compile_kernel(saxpy_kernel(), SPEC)
        writer = compile_kernel(writer_kernel(), SPEC)
        cost_model = codegen.CostModel(SPEC)
        assert (codegen.kernel_code(saxpy, cost_model)
                is not codegen.kernel_code(writer, cost_model))

    def test_unresolved_symbol_is_part_of_the_content(self, engine):
        """A kernel missing the symbol must not inherit code generated
        for one that has it: it fails as it always did."""
        from repro.errors import ExecutionError

        with forced_engine(engine) as make:
            executor = make(SPEC, GlobalMemory(1 << 20))
            executor.launch(load_module(BASE + 4096), (1, 1, 1),
                            (64, 1, 1), [BASE])
            unbound = compile_kernel(table_reader_kernel(), SPEC)
            with pytest.raises(ExecutionError, match="unresolved symbol"):
                executor.launch(unbound, (1, 1, 1), (64, 1, 1), [BASE])


@pytest.mark.parametrize("engine", GENERATED)
class TestLifetime:
    def test_entries_do_not_outlive_their_kernels(self, engine):
        """255 cached functions for 16 live kernels was the leak: load
        and drop many modules, keep one executor."""
        with forced_engine(engine) as make:
            executor = make(SPEC, GlobalMemory(1 << 20))
            for _ in range(50):
                module = load_module(BASE + 4096)
                executor.launch(module, (1, 1, 1), (64, 1, 1), [BASE])
                assert len(executor._engines) == 1
            code = weakref.ref(module.code)
            del module
            gc.collect()
            assert code() is None
            assert len(executor._engines) == 0
            assert not any(key[0] == "table_reader"
                           for key in codegen._CODE_BY_CONTENT)

    def test_kernel_reusing_a_dead_kernels_identity(self, engine):
        """Whatever ``id`` a new kernel gets, it runs its own code with
        its own symbols."""
        with forced_engine(engine) as make:
            memory = GlobalMemory(1 << 20)
            memory.write_array(
                BASE + 4096, np.arange(64, dtype=np.uint32), dtype="u32")
            executor = make(SPEC, memory)
            for round_number in range(20):
                table_at = BASE + 4096 + 4 * (round_number % 2)
                compiled = load_module(table_at)
                executor.launch(compiled, (1, 1, 1), (32, 1, 1), [BASE])
                assert memory.load_scalar(BASE, "u32") == round_number % 2
                del compiled


def test_symbol_store_uses_call_time_address():
    """A store through a module symbol, on both generated engines."""
    b = KernelBuilder("symbol_store", params=[])
    tid = b.special("%tid.x")
    b.emit("st.global.u32", MemRef(Symbol("cell")), tid)
    kernel = b.build()
    for engine in GENERATED:
        with forced_engine(engine) as make:
            memory = GlobalMemory(1 << 20)
            executor = make(SPEC, memory)
            compiled = compile_kernel(kernel, SPEC)
            compiled.global_symbols["cell"] = BASE + 64
            executor.launch(compiled, (1, 1, 1), (1, 1, 1), [])
            compiled.global_symbols["cell"] = BASE + 128  # re-bound
            executor.launch(compiled, (1, 1, 1), (1, 1, 1), [])
            assert memory.read(BASE + 64, 4) == memory.read(BASE + 128, 4)
