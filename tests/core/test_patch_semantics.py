"""Semantic tests of patched kernels: executed on the simulator.

Two obligations per fencing mode:

1. **Transparency** — a legal kernel behaves identically after
   patching (same outputs);
2. **Containment** — an out-of-bounds access never touches memory
   outside the partition: bitwise/modulo wrap it inside, checking
   suppresses it.
"""

import contextlib
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import GuardianClient
from repro.core.masks import division_magic, fence_address, partition_mask
from repro.core.patcher import PTXPatcher
from repro.core.policy import FencingMode
from repro.core.server import GuardianServer
from repro.errors import (
    ExecutionError,
    GuardianError,
    MemoryFault,
    PTXValidationError,
    ReproError,
)
from repro.gpu.device import Device
from repro.gpu.executor import KernelExecutor, compile_kernel
from repro.gpu.memory import GlobalMemory
from repro.gpu.specs import QUADRO_RTX_A4000
from repro.ptx import isa
from repro.ptx.ast import MemRef
from repro.ptx.builder import KernelBuilder, build_module
from repro.ptx.emitter import emit_module

from tests.conftest import (
    ENGINES,
    forced_engine,
    reader_kernel,
    saxpy_kernel,
    writer_kernel,
)

SPEC = QUADRO_RTX_A4000
BASE = 0x7F_A000_0000_00
PART_SIZE = 1 << 20


def extra_params(mode, base=BASE, size=PART_SIZE):
    if mode is FencingMode.BITWISE:
        return [base, partition_mask(size)]
    if mode is FencingMode.MODULO:
        return [base, size, division_magic(size)]
    if mode is FencingMode.CHECKING:
        return [base, base + size]
    return []


def run_patched(kernel, mode, grid, block, params, setup=None,
                use_codegen=True):
    patched, _ = PTXPatcher(mode).patch_kernel(kernel)
    memory = GlobalMemory(1 << 24)
    if setup:
        setup(memory)
    executor = KernelExecutor(SPEC, memory, use_codegen=use_codegen)
    compiled = compile_kernel(patched, SPEC)
    result = executor.launch(compiled, grid, block,
                             list(params) + extra_params(mode))
    return memory, result


MODES = [FencingMode.BITWISE, FencingMode.MODULO, FencingMode.CHECKING]


class TestTransparency:
    """Legal kernels must produce identical results when sandboxed."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("use_codegen", [True, False],
                             ids=["jit", "interp"])
    def test_saxpy_unchanged(self, mode, use_codegen):
        xs = np.arange(64, dtype=np.float32)

        def setup(memory):
            memory.write_array(BASE + 8192, xs)

        memory, _ = run_patched(
            saxpy_kernel(), mode, (1, 1, 1), (64, 1, 1),
            [BASE, BASE + 8192, 2.0, 64], setup,
            use_codegen=use_codegen,
        )
        assert np.allclose(memory.read_array(BASE, 64), 2.0 * xs)

    @pytest.mark.parametrize("mode", MODES)
    def test_legal_writer_unchanged(self, mode):
        memory, _ = run_patched(
            writer_kernel(), mode, (1, 1, 1), (1, 1, 1),
            [BASE, 4096, 1234],
        )
        assert memory.load_scalar(BASE + 4096, "u32") == 1234

    @pytest.mark.parametrize("mode", MODES)
    def test_cost_increases_in_mode_order(self, mode):
        """bitwise < modulo < checking per-access cost (§4.4)."""
        _, native = run_patched(saxpy_kernel(), FencingMode.NONE,
                                (1, 1, 1), (64, 1, 1),
                                [BASE, BASE + 8192, 1.0, 64])
        _, fenced = run_patched(saxpy_kernel(), mode,
                                (1, 1, 1), (64, 1, 1),
                                [BASE, BASE + 8192, 1.0, 64])
        assert fenced.total_warp_cycles > native.total_warp_cycles

    def test_mode_cost_ordering(self):
        costs = {}
        for mode in [FencingMode.NONE] + MODES:
            _, result = run_patched(saxpy_kernel(), mode,
                                    (1, 1, 1), (64, 1, 1),
                                    [BASE, BASE + 8192, 1.0, 64])
            costs[mode] = result.total_warp_cycles
        assert (costs[FencingMode.NONE] < costs[FencingMode.BITWISE]
                < costs[FencingMode.MODULO]
                < costs[FencingMode.CHECKING])


class TestContainmentWrites:
    VICTIM = BASE + PART_SIZE + 256  # outside the partition

    def _attack(self, mode, evil_offset):
        def setup(memory):
            memory.write(self.VICTIM, b"\xAA" * 64)

        memory, _ = run_patched(
            writer_kernel(), mode, (1, 1, 1), (1, 1, 1),
            [BASE, evil_offset, 0xDEAD], setup,
        )
        return memory

    @pytest.mark.parametrize("mode", MODES)
    def test_write_into_neighbour_contained(self, mode):
        evil = (self.VICTIM + 16) - BASE
        memory = self._attack(mode, evil)
        assert memory.read(self.VICTIM, 64) == b"\xAA" * 64

    @pytest.mark.parametrize("mode", MODES)
    def test_write_far_above_contained(self, mode):
        memory = self._attack(mode, 1 << 23)
        assert memory.read(self.VICTIM, 64) == b"\xAA" * 64

    def test_bitwise_wraps_into_own_partition(self):
        """Fig. 5: the fenced address lands in the attacker's own
        partition at the masked offset."""
        evil = (self.VICTIM + 16) - BASE
        memory = self._attack(FencingMode.BITWISE, evil)
        wrapped = fence_address(BASE + evil, BASE,
                                partition_mask(PART_SIZE))
        assert BASE <= wrapped < BASE + PART_SIZE
        assert memory.load_scalar(wrapped, "u32") == 0xDEAD

    def test_checking_suppresses_write_entirely(self):
        """Address checking detects and returns: the write happens
        nowhere, not even wrapped."""
        evil = (self.VICTIM + 16) - BASE
        memory = self._attack(FencingMode.CHECKING, evil)
        wrapped = fence_address(BASE + evil, BASE,
                                partition_mask(PART_SIZE))
        assert memory.load_scalar(wrapped, "u32") == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_offset_contained(self, mode):
        """Attacks below the partition base (negative effective
        offset) are contained too."""
        def setup(memory):
            pass

        memory, _ = run_patched(
            writer_kernel(), mode, (1, 1, 1), (1, 1, 1),
            [BASE + 65536, (1 << 64) - 65536 - 4096, 0xBEEF], setup,
        )
        # The write must not land at BASE - 4096... which is unmapped
        # anyway; the real assertion is that no fault occurred and the
        # partition's own bytes outside the wrap target are clean.


class TestContainmentReads:
    SECRET = BASE + PART_SIZE + 512

    @pytest.mark.parametrize("mode", MODES)
    def test_secret_not_exfiltrated(self, mode):
        """A read reaching into a neighbour must not return the
        neighbour's data."""
        def setup(memory):
            memory.store_scalar(self.SECRET, "u32", 0x5EC2E7)

        evil = self.SECRET - BASE
        memory, _ = run_patched(
            reader_kernel(), mode, (1, 1, 1), (1, 1, 1),
            [BASE, BASE, evil], setup,
        )
        leaked = memory.load_scalar(BASE, "u32")
        assert leaked != 0x5EC2E7


class TestContainmentProperty:
    @given(
        evil_offset=st.integers(min_value=0, max_value=(1 << 62)),
        mode=st.sampled_from(MODES),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_offset_escapes(self, evil_offset, mode):
        """Property: for ANY 62-bit offset, bytes outside the
        partition are untouched after a patched write. Misaligned
        fenced addresses abort the (malicious) kernel, as on real
        hardware — that also counts as containment."""
        from repro.errors import MemoryFault

        def setup(memory):
            memory.write(BASE + PART_SIZE, b"\x33" * 4096)

        try:
            memory, _ = run_patched(
                writer_kernel(), mode, (1, 1, 1), (1, 1, 1),
                [BASE, evil_offset, 0xF00D], setup,
            )
        except MemoryFault as fault:
            assert "misaligned" in str(fault)
            return
        assert memory.read(BASE + PART_SIZE, 4096) == b"\x33" * 4096


class TestBrxContainment:
    def test_wild_indirect_branch_wrapped(self):
        """brx.idx with an attacker-controlled index wraps modulo the
        table size instead of faulting/escaping (§4.3)."""
        from repro.ptx.builder import KernelBuilder

        b = KernelBuilder("jump", params=[("out", "u64"),
                                          ("sel", "u32")])
        out = b.load_param_ptr("out")
        selector = b.load_param("sel", "u32")
        end = b.fresh_label("end")
        c0, c1 = b.fresh_label("c0"), b.fresh_label("c1")
        b.brx_idx(selector, [c0, c1])
        b.label(c0)
        b.st_global("u32", out, 100)
        b.bra(end)
        b.label(c1)
        b.st_global("u32", out, 200)
        b.label(end)
        memory, _ = run_patched(b.build(), FencingMode.BITWISE,
                                (1, 1, 1), (1, 1, 1), [BASE, 7])
        # 7 mod 2 == 1 -> case c1.
        assert memory.load_scalar(BASE, "u32") == 200


# --------------------------------------------------------------------------
# State spaces the patcher does not fence, through the server's load path
# --------------------------------------------------------------------------


def served(mode, make):
    """A server whose device runs every launch on ``make``'s engine."""
    device = Device(SPEC)
    device.executor = make(device.spec, device.memory,
                           hierarchy=device.hierarchy)
    return GuardianServer(device, mode)


#: Every memory op, in every state space and with no space suffix.
FORMS = [
    f"{op}.{space}" if space else op
    for op, info in isa.OPCODES.items()
    if info.address is not None
    for space in (None, *sorted(isa.STATE_SPACES))
]


def attack_text(form: str) -> str:
    """One thread aims ``form`` at the absolute address ``target``: a
    store or an atomic writes ``value`` there, and what a load or an
    atomic read goes to ``out``."""
    b = KernelBuilder("attack", params=[("out", "u64"), ("target", "u64"),
                                        ("value", "u32")])
    out = b.load_param_ptr("out")
    target = b.load_param("target", "u64")
    value = b.load_param("value", "u32")
    if form.startswith("st"):
        b.emit(f"{form}.u32", MemRef(target), value)
    else:
        loot = b.reg("u32")
        if form.startswith("ld"):
            b.emit(f"{form}.u32", loot, MemRef(target))
        else:
            b.emit(f"{form}.add.u32", loot, MemRef(target), value)
        b.st_global("u32", out, loot)
    return emit_module(build_module([b.build()]))


class TestStateSpaceAttack:
    """A tenant aims each memory op, in each state space, at its
    neighbour's buffer. Whatever :data:`isa.ROUTES` says of the form,
    the neighbour's bytes do not move and its secret does not leak: a
    pair the table lacks is refused at load, naming the instruction; a
    device access is fenced; a shared, local or param one is a counted
    kill. A new table row is covered here with no test edit."""

    SECRET = b"\x5e" * 64

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("form", FORMS)
    def test_neighbour_untouched(self, form, mode, engine):
        op, _, space = form.partition(".")
        route = isa.ROUTES.get((op, space or "generic"))
        with forced_engine(engine) as make:
            server = served(mode, make)
            victim = GuardianClient(server, "alice", 1 << 20)
            attacker = GuardianClient(server, "mallory", 1 << 20)
            buffer = victim.malloc(256)
            victim.memcpy_h2d(buffer, self.SECRET)
            victim.synchronize()
            out = attacker.malloc(4)
            if route is None:
                with pytest.raises(PTXValidationError,
                                   match=re.escape(form)):
                    attacker.load_module_ptx(attack_text(form))
            else:
                handle = attacker.load_module_ptx(attack_text(form))
                fenced = route == isa.DEVICE
                with (contextlib.nullcontext() if fenced
                      else pytest.raises(GuardianError)) as killed:
                    attacker.launch_kernel(handle["attack"], (1, 1, 1),
                                           (1, 1, 1),
                                           [out, buffer, 0x0BADF00D])
                    attacker.synchronize()
                if fenced:
                    assert attacker.memcpy_d2h(out, 4) != self.SECRET[:4]
                    assert server.stats.kernels_killed == 0
                else:
                    assert isinstance(killed.value.__cause__,
                                      ExecutionError)
                    assert server.stats.kernels_killed == 1
            assert victim.memcpy_d2h(buffer, 64) == self.SECRET


def wild_text(form: str, held: str) -> str:
    """One thread loads or stores a u32 in ``.local``/``.shared`` at
    the signed address ``where``, held in a ``held`` register; a load's
    value goes to ``out``."""
    b = KernelBuilder("wild", params=[("out", "u64"), ("where", held)])
    out = b.load_param_ptr("out")
    where = b.load_param("where", held)
    b.shared_array("scratch", "u32", 16)
    if form.startswith("st."):
        b.emit(f"{form}.u32", MemRef(where), b.mov("u32", 7))
    else:
        value = b.reg("u32")
        b.emit(f"{form}.u32", value, MemRef(where))
        b.st_global("u32", out, value)
    return emit_module(build_module([b.build()]))


class TestWildBufferAddress:
    """A shared or local access outside its buffer is the same counted
    kill on every engine, and the tenant's next launch runs. An s64
    -4 wraps to 2**64 - 4; an s32 one stays -4, which ``struct`` would
    count from the end of the buffer."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("where,held", [
        (1 << 40, "s64"), (-4, "s64"), (-4, "s32")],
        ids=["far", "below", "below_s32"])
    @pytest.mark.parametrize("form", ["st.local", "ld.local", "st.shared",
                                      "ld.shared"])
    def test_counted_kill(self, form, where, held, engine):
        with forced_engine(engine) as make:
            server = served(FencingMode.BITWISE, make)
            client = GuardianClient(server, "alice", 1 << 20)
            buffer = client.malloc(256)
            handle = client.load_module_ptx(wild_text(form, held))["wild"]
            with pytest.raises(GuardianError) as killed:
                client.launch_kernel(handle, (1, 1, 1), (1, 1, 1),
                                     [buffer, where])
                client.synchronize()
            assert isinstance(killed.value.__cause__, ExecutionError)
            assert server.stats.kernels_killed == 1
            client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [buffer, 0])
            client.synchronize()
            assert server.stats.kernels_killed == 1


_FAULT_TEXT = """.version 7.5
.target sm_86
.address_size 64

.visible .entry fault(
\t.param .u64 fault_param_out
)
{{
\t.reg .b32 \t%r<2>;
\t.reg .b64 \t%rd<2>;
\tld.param.u64 %rd1, [fault_param_out];
\tmov.u32 %r1, 7;
\tst.global.u32 [%rd1{offset}], %r1;
\tret;
}}
"""

#: ``(scheme, unmapped, offset)`` by case: a store one byte past the
#: tenant's buffer (misaligned) under every scheme, and an aligned one
#: to an unmapped address under none (the schemes keep any address
#: inside the partition).
_MEMORY_FAULTS = {
    **{f"misaligned-{mode.name.lower()}": (mode, False, "+1")
       for mode in MODES},
    "unmapped-none": (FencingMode.NONE, True, ""),
}


class TestMemoryFaultKill:
    """A device-memory fault in a launch is the same counted kill as an
    ``ExecutionError`` on every engine: a ``GuardianError`` naming the
    tenant, ``kernels_killed`` + 1, the tenant's next launch runs and
    the neighbour's bytes do not move."""

    SECRET = b"\x5e" * 64

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(_MEMORY_FAULTS))
    def test_counted_kill(self, case, engine):
        mode, unmapped, offset = _MEMORY_FAULTS[case]
        with forced_engine(engine) as make:
            server = served(mode, make)
            victim = GuardianClient(server, "alice", 1 << 20)
            secret = victim.malloc(256)
            victim.memcpy_h2d(secret, self.SECRET)
            victim.synchronize()
            client = GuardianClient(server, "mallory", 1 << 20)
            buffer = client.malloc(256)
            target = 8 if unmapped else buffer
            handle = client.load_module_ptx(
                _FAULT_TEXT.format(offset=offset))["fault"]
            with pytest.raises(GuardianError, match="mallory") as killed:
                client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [target])
                client.synchronize()
            assert isinstance(killed.value.__cause__, MemoryFault)
            assert server.stats.kernels_killed == 1
            aligned = client.load_module_ptx(
                _FAULT_TEXT.format(offset=""))["fault"]
            client.launch_kernel(aligned, (1, 1, 1), (1, 1, 1), [buffer])
            client.synchronize()
            assert server.stats.kernels_killed == 1
            assert client.memcpy_d2h(buffer, 4) == (7).to_bytes(4, "little")
            assert victim.memcpy_d2h(secret, 64) == self.SECRET


_ARITHMETIC_TEXT = """.version 7.5
.target sm_86
.address_size 64

.visible .entry arith(
\t.param .u64 arith_param_out,
\t.param .u32 arith_param_d
)
{{
\t.reg .b32 \t%r<4>;
\t.reg .f32 \t%f<5>;
\t.reg .b64 \t%rd<2>;
\t.reg .f64 \t%fd<2>;
\tld.param.u64 %rd1, [arith_param_out];
\tld.param.u32 %r1, [arith_param_d];
{body}
\tret;
}}
"""

#: ``7 <op> d``, stored at ``out``.
_INTEGER_DIVISION = """\tmov.u32 %r2, 7;
\t{opcode} %r3, %r2, %r1;
\tst.global.u32 [%rd1], %r3;"""

#: What nvcc and hand-written PTX put in float registers that Python's
#: ``repr`` cannot spell back, division by zero, a double beyond the
#: f32 range stored as f32, and a float converted to an integer; each
#: with the bytes it stores.
_FLOAT_CASES = {
    # max(-inf, out[0]) back to out[0], the seed itself to out[1].
    "neg_inf_immediate": ("""\tld.global.f32 %f1, [%rd1];
\tmov.f32 %f2, 0fFF800000;
\tmax.f32 %f3, %f2, %f1;
\tst.global.f32 [%rd1], %f3;
\tst.global.f32 [%rd1+4], %f2;""",
                          struct.pack("<ff", 2.5, -math.inf)),
    # 2**129: an f64 no f32 holds.
    "f64_immediate": ("""\tmov.f64 %fd1, 0d4800000000000000;
\tst.global.f64 [%rd1], %fd1;""", struct.pack("<d", 2.0 ** 129)),
    # 2.5 / 0, -2.5 / 0, 0 / 0 (IEEE: +inf, -inf, NaN).
    "float_division_by_zero": ("""\tld.global.f32 %f1, [%rd1];
\tcvt.rn.f32.u32 %f2, %r1;
\tdiv.rn.f32 %f3, %f1, %f2;
\tst.global.f32 [%rd1], %f3;
\tneg.f32 %f4, %f1;
\tdiv.rn.f32 %f3, %f4, %f2;
\tst.global.f32 [%rd1+4], %f3;
\tdiv.rn.f32 %f3, %f2, %f2;
\tst.global.f32 [%rd1+8], %f3;""",
                               struct.pack("<fff", math.inf, -math.inf,
                                           math.nan)),
    # 2**129 narrowed to f32 and stored: f32 rounding gives infinity.
    "f32_store_overflow": ("""\tmov.f64 %fd1, 0d4800000000000000;
\tcvt.rn.f32.f64 %f1, %fd1;
\tst.global.f32 [%rd1], %f1;""", struct.pack("<f", math.inf)),
    # cvt writes its destination type: an s32 the store packs.
    "float_to_int": ("""\tld.global.f32 %f1, [%rd1];
\tcvt.rzi.s32.f32 %r2, %f1;
\tst.global.s32 [%rd1], %r2;""", struct.pack("<i", 2)),
    # ex2 of 2000 overflows, rcp and lg2 of 0 and rcp of -0 are poles:
    # IEEE gives +inf, +inf, -inf, -inf.
    "sfu_overflow_and_poles": ("""\tmov.f32 %f1, 0f44FA0000;
\tex2.approx.f32 %f2, %f1;
\tst.global.f32 [%rd1], %f2;
\tmov.f32 %f1, 0f00000000;
\trcp.approx.f32 %f2, %f1;
\tst.global.f32 [%rd1+4], %f2;
\tlg2.approx.f32 %f2, %f1;
\tst.global.f32 [%rd1+8], %f2;
\tneg.f32 %f1, %f1;
\trcp.approx.f32 %f2, %f1;
\tst.global.f32 [%rd1+12], %f2;""",
                               struct.pack("<ffff", math.inf, math.inf,
                                           -math.inf, -math.inf)),
    # A float min/max with one NaN operand gives the other, in either
    # order: min(NaN, 1.5), min(1.5, NaN), max(NaN, 1.5), max(1.5, NaN).
    "min_max_of_a_nan": ("""\tmov.f32 %f1, 0f7FC00000;
\tmov.f32 %f2, 0f3FC00000;
\tmin.f32 %f3, %f1, %f2;
\tst.global.f32 [%rd1], %f3;
\tmin.f32 %f3, %f2, %f1;
\tst.global.f32 [%rd1+4], %f3;
\tmax.f32 %f3, %f1, %f2;
\tst.global.f32 [%rd1+8], %f3;
\tmax.f32 %f3, %f2, %f1;
\tst.global.f32 [%rd1+12], %f3;""", struct.pack("<ffff", 1.5, 1.5, 1.5,
                                                  1.5)),
    # A float-to-float cvt with .rmi/.rni/.rpi/.rzi rounds to an
    # integral value, keeping the sign of a zero: 2.5 down, to even
    # and up, -2.5 toward zero, -0.4 to even; plain .rn keeps 2.5.
    "float_to_float_rounding": ("""\tld.global.f32 %f1, [%rd1];
\tcvt.rmi.f32.f32 %f2, %f1;
\tst.global.f32 [%rd1], %f2;
\tcvt.rni.f32.f32 %f2, %f1;
\tst.global.f32 [%rd1+4], %f2;
\tcvt.rpi.f32.f32 %f2, %f1;
\tst.global.f32 [%rd1+8], %f2;
\tneg.f32 %f3, %f1;
\tcvt.rzi.f32.f32 %f2, %f3;
\tst.global.f32 [%rd1+12], %f2;
\tmov.f32 %f4, 0fBECCCCCD;
\tcvt.rni.f32.f32 %f2, %f4;
\tst.global.f32 [%rd1+16], %f2;
\tcvt.rn.f32.f32 %f2, %f1;
\tst.global.f32 [%rd1+20], %f2;""",
                                struct.pack("<ffffff", 2.0, 2.0, 3.0, -2.0,
                                            -0.0, 2.5)),
    # .sat clamps to [0, 1] and sends NaN to +0.0: 2.5, -2.5, NaN, 0.25.
    "float_to_float_sat": ("""\tld.global.f32 %f1, [%rd1];
\tcvt.sat.f32.f32 %f2, %f1;
\tst.global.f32 [%rd1], %f2;
\tneg.f32 %f3, %f1;
\tcvt.sat.f32.f32 %f2, %f3;
\tst.global.f32 [%rd1+4], %f2;
\tmov.f32 %f4, 0f7FC00000;
\tcvt.sat.f32.f32 %f2, %f4;
\tst.global.f32 [%rd1+8], %f2;
\tmov.f32 %f4, 0f3E800000;
\tcvt.sat.f32.f32 %f2, %f4;
\tst.global.f32 [%rd1+12], %f2;""",
                           struct.pack("<ffff", 1.0, 0.0, 0.0, 0.25)),
}

#: Integer div/rem/min/max read their operands as their own type:
#: 0x7FFFFFFF + 1 is -2**31 to an s32 op (div by 2, rem by 3), -5 is
#: 0xFFFFFFFB to a u32 one (min and max with 7), 0xFFFFFFFB is -5 to
#: an s32 one (min with 7).
_INTEGER_VIEWS = ("""\tmov.u32 %r2, 2147483647;
\tadd.s32 %r2, %r2, 1;
\tdiv.s32 %r3, %r2, 2;
\tst.global.s32 [%rd1], %r3;
\trem.s32 %r3, %r2, 3;
\tst.global.s32 [%rd1+4], %r3;
\tmov.u32 %r2, 0;
\tsub.s32 %r2, %r2, 5;
\tmin.u32 %r3, %r2, 7;
\tst.global.u32 [%rd1+8], %r3;
\tmax.u32 %r3, %r2, 7;
\tst.global.u32 [%rd1+12], %r3;
\tmov.u32 %r2, 4294967291;
\tmin.s32 %r3, %r2, 7;
\tst.global.s32 [%rd1+16], %r3;""",
                  struct.pack("<iiIIi", -1073741824, -2, 7, 0xFFFFFFFB, -5))


class TestArithmeticOutcomes:
    """Division by zero, non-finite or f32-overflowing immediates,
    special-function overflows and poles, and operands read through
    their type, through the server's load path: one outcome on every
    engine."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("opcode", ["div.u32", "rem.u32", "div.s32"])
    def test_integer_division_by_zero_is_a_counted_kill(self, opcode,
                                                        engine):
        text = _ARITHMETIC_TEXT.format(
            body=_INTEGER_DIVISION.format(opcode=opcode))
        with forced_engine(engine) as make:
            server = served(FencingMode.BITWISE, make)
            client = GuardianClient(server, "alice", 1 << 20)
            out = client.malloc(4)
            handle = client.load_module_ptx(text)["arith"]
            with pytest.raises(GuardianError) as killed:
                client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [out, 0])
                client.synchronize()
            cause = killed.value.__cause__
            assert isinstance(cause, ExecutionError)
            what = "remainder" if opcode.startswith("rem") else "division"
            assert str(cause) == f"integer {what} by zero"
            assert server.stats.kernels_killed == 1
            client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [out, 3])
            client.synchronize()
            assert server.stats.kernels_killed == 1
            answer = 1 if opcode.startswith("rem") else 2
            assert client.memcpy_d2h(out, 4) == answer.to_bytes(4, "little")

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("case", sorted(_FLOAT_CASES))
    def test_float_bytes(self, case, engine):
        self.assert_stores(*_FLOAT_CASES[case], engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_integer_operand_views(self, engine):
        self.assert_stores(*_INTEGER_VIEWS, engine)

    @staticmethod
    def assert_stores(body, stored, engine):
        text = _ARITHMETIC_TEXT.format(body=body)
        with forced_engine(engine) as make:
            server = served(FencingMode.BITWISE, make)
            client = GuardianClient(server, "alice", 1 << 20)
            out = client.malloc(32)
            client.memcpy_h2d(out, struct.pack("<f", 2.5))
            handle = client.load_module_ptx(text)["arith"]
            client.launch_kernel(handle, (1, 1, 1), (1, 1, 1), [out, 0])
            client.synchronize()
            assert client.memcpy_d2h(out, len(stored)) == stored
            assert server.stats.kernels_killed == 0


#: A memory operand outside the address slot, or none in it.
MISPLACED = [
    "st.global.u32 %r1, [%rd1];",
    "ld.global.u32 [%rd1], %r1;",
    "atom.global.add.u32 [%rd1], %r1, %r2;",
    "ld.shared.u32 %r1, %rd1;",
    "st.local.u32 %rd1, %r1;",
    "and.b64 %rd2, %rd1, [%rd1];",
    "mov.u64 %rd2, [%rd1];",
    "setp.eq.u32 %p1, %r1, [%rd1];",
    "add.u32 %r2, %r1, [%rd1];",
]

_MISPLACED_TEXT = """.version 7.5
.target sm_86
.address_size 64

.visible .entry misplaced(
\t.param .u64 misplaced_param_target
)
{{
\t.reg .pred \t%p<2>;
\t.reg .b32 \t%r<3>;
\t.reg .b64 \t%rd<3>;
\tld.param.u64 %rd1, [misplaced_param_target];
\tmov.u32 %r1, 7;
\tmov.u32 %r2, 7;
\t{form}
\tret;
}}
"""


class TestMisplacedMemoryOperand:
    """An operand slot holding the wrong kind of operand is refused at
    load, naming the instruction, instead of loading and then failing
    inside an engine; the neighbour's next launch runs."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("mode", list(FencingMode))
    @pytest.mark.parametrize("form", MISPLACED)
    def test_refused_at_load(self, form, mode, engine):
        with forced_engine(engine) as make:
            server = served(mode, make)
            victim = GuardianClient(server, "alice", 1 << 20)
            attacker = GuardianClient(server, "mallory", 1 << 20)
            buffer = victim.malloc(256)
            with pytest.raises(ReproError) as refused:
                attacker.load_module_ptx(_MISPLACED_TEXT.format(form=form))
            assert form.split()[0] in str(refused.value)
            handle = victim.load_module_ptx(
                emit_module(build_module([writer_kernel()])))["writer"]
            victim.launch_kernel(handle, (1, 1, 1), (1, 1, 1),
                                 [buffer, 0, 0xC0FFEE])
            victim.synchronize()
            assert victim.memcpy_d2h(buffer, 4) == (0xC0FFEE).to_bytes(
                4, "little")
            assert server.stats.kernels_killed == 0
