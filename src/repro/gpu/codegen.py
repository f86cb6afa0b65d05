"""Python code generation for compiled kernels (the simulator's JIT).

The reference interpreter in :mod:`repro.gpu.executor` dispatches every
instruction dynamically (~10 us each) — faithful but far too slow for
the paper's benchmark matrix. This module compiles each kernel's
decoded instruction list into one specialised Python generator
function:

- virtual registers become Python locals,
- basic blocks become arms of a ``while True`` state machine,
- per-block static cycle/instruction counts are folded into single
  additions,
- loads/stores call pre-bound helpers that consult the cache model and
  return (value, dynamic_cycles).

Semantics match the interpreter, with two documented deviations chosen
for speed and verified acceptable by the differential tests
(``tests/gpu/test_codegen_differential.py``):

1. f32 arithmetic is evaluated in double precision and rounded to f32
   only when stored to memory (a *more* accurate instance of IEEE
   nondeterminism; real GPUs also fuse/contract);
2. reading a never-written register yields 0 instead of raising (real
   hardware gives an undefined value; 0 is one such value).

Cycle accounting is bit-identical to the interpreter's, which the
differential tests also assert.

The block engine
----------------
:class:`KernelCodegen` holds the emission both generated engines share;
:class:`ThreadCodegen` (here) produces the per-thread function and
:class:`repro.gpu.blockgen.BlockCodegen` one *block function* that runs
a whole thread block with registers as numpy lane vectors. The block
generator and its runtime (:mod:`repro.gpu.blockrt`) are imported only
when a launch first asks for a block function.

Generated code is cached by kernel *content* (:func:`kernel_code`).
"""

from __future__ import annotations

import math
import struct
import types
import weakref
from typing import Optional

from repro.errors import ExecutionError, MemoryFault
from repro.gpu.latency import SHARED_ACCESS_CYCLES, CostModel
from repro.gpu.memory import PAGE_SIZE, GlobalMemory
from repro.ptx import isa
from repro.ptx.ast import (
    Immediate,
    MemRef,
    RegDecl,
    Register,
    SpecialReg,
    Symbol,
)

#: Watchdog: a single thread executing more blocks than this is
#: considered a runaway kernel (matches the interpreter's guard).
MAX_BLOCK_STEPS = 2_000_000

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

_F32 = struct.Struct("<f")

_INT_MASKS = {
    "u8": (1 << 8) - 1, "b8": (1 << 8) - 1, "s8": (1 << 8) - 1,
    "u16": (1 << 16) - 1, "b16": (1 << 16) - 1, "s16": (1 << 16) - 1,
    "u32": _MASK32, "b32": _MASK32, "s32": _MASK32,
    "u64": _MASK64, "b64": _MASK64, "s64": _MASK64,
}

_SHARED_STRUCTS = {
    "f32": "_sF32", "f64": "_sF64",
    "u8": "_sU8", "b8": "_sU8", "s8": "_sS8",
    "u16": "_sU16", "b16": "_sU16", "s16": "_sS16",
    "u32": "_sU32", "b32": "_sU32", "s32": "_sS32",
    "u64": "_sU64", "b64": "_sU64", "s64": "_sS64",
}


# --------------------------------------------------------------------------
# Runtime helpers captured by every generated function
# --------------------------------------------------------------------------


def _truncdiv(a, b):
    """Integer division truncating toward zero (PTX div semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _truncrem(a, b):
    return a - _truncdiv(a, b) * b


def make_memory_helpers(memory: GlobalMemory, hierarchy,
                        cost_model: CostModel) -> dict:
    """Bind fast load/store helpers over one device's memory system.

    Each helper returns ``(value, cycles)`` for loads or ``cycles`` for
    stores; cycles come from the cache simulation exactly as in the
    interpreter.
    """
    pages = memory._pages
    base = memory.base
    limit = memory.limit
    load_scalar = memory.load_scalar
    store_scalar = memory.store_scalar

    # Inlined two-level cache resolution. Operates directly on the
    # hierarchy's tag lists and updates its statistics objects, so
    # profiling through `hierarchy` observes the same state as the
    # interpreter path. The MRU fast path matters: 32 consecutive lane
    # addresses share one 128-byte line, so most accesses hit way 0.
    l1 = hierarchy.l1
    l2 = hierarchy.l2
    l1_sets, l1_num, l1_assoc = l1._sets, l1.num_sets, l1.associativity
    l2_sets, l2_num, l2_assoc = l2._sets, l2.num_sets, l2.associativity
    line_bytes = l1.line_bytes
    l1_stats, l2_stats = l1.stats, l2.stats
    counts = hierarchy.level_counts
    cost_l1 = cost_model.memory_cost("l1")
    cost_l2 = cost_model.memory_cost("l2")
    cost_global = cost_model.memory_cost("global")

    def resolve(addr):
        """Touch both cache levels; return the access latency."""
        line = addr // line_bytes
        ways = l1_sets[line % l1_num]
        tag = line // l1_num
        if ways:
            if ways[0] == tag:
                l1_stats.hits += 1
                counts["l1"] += 1
                return cost_l1
            try:
                position = ways.index(tag)
            except ValueError:
                position = -1
            if position >= 0:
                ways.insert(0, ways.pop(position))
                l1_stats.hits += 1
                counts["l1"] += 1
                return cost_l1
        l1_stats.misses += 1
        ways.insert(0, tag)
        if len(ways) > l1_assoc:
            ways.pop()
        ways2 = l2_sets[line % l2_num]
        tag2 = line // l2_num
        if ways2:
            if ways2[0] == tag2:
                l2_stats.hits += 1
                counts["l2"] += 1
                return cost_l2
            try:
                position = ways2.index(tag2)
            except ValueError:
                position = -1
            if position >= 0:
                ways2.insert(0, ways2.pop(position))
                l2_stats.hits += 1
                counts["l2"] += 1
                return cost_l2
        l2_stats.misses += 1
        ways2.insert(0, tag2)
        if len(ways2) > l2_assoc:
            ways2.pop()
        counts["global"] += 1
        return cost_global

    def _ld(dtype_width_fmt):
        dtype, width, fmt = dtype_width_fmt
        unpack = struct.Struct(fmt).unpack_from if fmt else None
        zero = 0.0 if dtype in ("f32", "f64") else 0

        def loader(addr):
            if addr % width:
                raise MemoryFault(addr, width, f"misaligned {dtype}")
            if addr < base or addr + width > limit:
                raise MemoryFault(addr, width, "read")
            cycles = resolve(addr)
            offset = addr - base
            page_index = offset // PAGE_SIZE
            in_page = offset - page_index * PAGE_SIZE
            if unpack is not None and in_page + width <= PAGE_SIZE:
                page = pages.get(page_index)
                if page is None:
                    return zero, cycles
                return unpack(page, in_page)[0], cycles
            return load_scalar(addr, dtype), cycles

        return loader

    def _st(dtype_width_fmt):
        dtype, width, fmt = dtype_width_fmt
        pack = struct.Struct(fmt).pack_into if fmt else None
        is_float = dtype in ("f32", "f64")
        mask = None if is_float else _INT_MASKS[dtype]
        signed = dtype in ("s8", "s16", "s32", "s64")
        bits = width * 8

        def storer(addr, value):
            if addr % width:
                raise MemoryFault(addr, width, f"misaligned {dtype}")
            if addr < base or addr + width > limit:
                raise MemoryFault(addr, width, "write")
            cycles = resolve(addr)
            offset = addr - base
            page_index = offset // PAGE_SIZE
            in_page = offset - page_index * PAGE_SIZE
            if pack is not None and in_page + width <= PAGE_SIZE:
                page = pages.get(page_index)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    pages[page_index] = page
                if is_float:
                    pack(page, in_page, value)
                else:
                    value &= mask
                    if signed and value >= 1 << (bits - 1):
                        value -= 1 << bits
                    pack(page, in_page, value)
                return cycles
            store_scalar(addr, dtype, value)
            return cycles

        return storer

    specs = {
        "f32": ("f32", 4, "<f"), "f64": ("f64", 8, "<d"),
        "u8": ("u8", 1, "<B"), "b8": ("b8", 1, "<B"), "s8": ("s8", 1, "<b"),
        "u16": ("u16", 2, "<H"), "b16": ("b16", 2, "<H"),
        "s16": ("s16", 2, "<h"),
        "u32": ("u32", 4, "<I"), "b32": ("b32", 4, "<I"),
        "s32": ("s32", 4, "<i"),
        "u64": ("u64", 8, "<Q"), "b64": ("b64", 8, "<Q"),
        "s64": ("s64", 8, "<q"),
    }
    env = {}
    for dtype, spec in specs.items():
        env[f"_ldg_{dtype}"] = _ld(spec)
        env[f"_stg_{dtype}"] = _st(spec)

    def atom(op, dtype, addr, value):
        width = isa.type_width(dtype)
        if addr % width:
            raise MemoryFault(addr, width, f"misaligned {dtype}")
        if addr < base or addr + width > limit:
            raise MemoryFault(addr, width, "atomic")
        cycles = 2 * resolve(addr)
        old = load_scalar(addr, dtype)
        if op == "add":
            new = old + value
        elif op == "max":
            new = max(old, value)
        elif op == "min":
            new = min(old, value)
        elif op == "exch":
            new = value
        else:
            raise ExecutionError(f"unimplemented atomic .{op}.")
        store_scalar(addr, dtype, new)
        return old, cycles

    env["_atom"] = atom
    # The block engine replays its access log through the same walk.
    env["_resolve"] = resolve
    return env


def _make_signed_view(bits: int):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits

    def view(value):
        value &= mask
        return value - full if value >= half else value

    return view


_BASE_ENV = {
    "_truncdiv": _truncdiv,
    "_truncrem": _truncrem,
    "_sv8": _make_signed_view(8),
    "_sv16": _make_signed_view(16),
    "_sv32": _make_signed_view(32),
    "_sv64": _make_signed_view(64),
    "_math": math,
    "_f32r": lambda v: _F32.unpack(_F32.pack(v))[0],
    "ExecutionError": ExecutionError,
    "_sF32": struct.Struct("<f"), "_sF64": struct.Struct("<d"),
    "_sU8": struct.Struct("<B"), "_sS8": struct.Struct("<b"),
    "_sU16": struct.Struct("<H"), "_sS16": struct.Struct("<h"),
    "_sU32": struct.Struct("<I"), "_sS32": struct.Struct("<i"),
    "_sU64": struct.Struct("<Q"), "_sS64": struct.Struct("<q"),
}


def thread_env(memory_env: dict, local_buffer) -> dict:
    """Globals of one executor's per-thread functions: the helpers of
    :func:`make_memory_helpers` plus the executor's ``.local`` buffer
    accessor."""
    return {**_BASE_ENV, **memory_env, "_local": local_buffer}


# --------------------------------------------------------------------------
# Source generation
# --------------------------------------------------------------------------


class _Gen:
    """Accumulates generated source lines with indentation."""

    def __init__(self):
        self.lines: list[str] = []
        self.indent = 0

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines)


def _mangle(name: str) -> str:
    return "r_" + name.lstrip("%").replace(".", "_").replace("$", "_")


_SPECIAL_LOCALS = {
    "%tid.x": "_tid0", "%tid.y": "_tid1", "%tid.z": "_tid2",
    "%ntid.x": "_ntid0", "%ntid.y": "_ntid1", "%ntid.z": "_ntid2",
    "%ctaid.x": "_ctaid0", "%ctaid.y": "_ctaid1", "%ctaid.z": "_ctaid2",
    "%nctaid.x": "_nctaid0", "%nctaid.y": "_nctaid1",
    "%nctaid.z": "_nctaid2",
    "%laneid": "_lane", "%warpid": "_warp", "%clock": "_cycles",
}

#: Scalar formulas of the special-function unit. The per-thread JIT
#: inlines this text; the block engine builds its lane helpers from it,
#: so both call the same libm entry points.
SFU_FORMULAS = {
    "sqrt": "_math.sqrt({0})",
    "rsqrt": "1.0 / _math.sqrt({0})",
    "rcp": "1.0 / {0}",
    "ex2": "2.0 ** {0}",
    "lg2": "_math.log2({0})",
    "sin": "_math.sin({0})",
    "cos": "_math.cos({0})",
    "tanh": "_math.tanh({0})",
}

_SFU_OPS = tuple(SFU_FORMULAS)


def basic_blocks(instructions) -> tuple[list[int], dict[int, int]]:
    """Leaders of a decoded body (0, every branch target, every
    instruction after a control transfer or barrier, and the end) and
    the leader -> block id map."""
    leaders = {0, len(instructions)}
    for index, ins in enumerate(instructions):
        if ins.op == "bra":
            leaders.add(ins.branch_target)
            if ins.guard_reg is not None:
                leaders.add(index + 1)
        elif ins.op == "brx":
            leaders.update(ins.brx_targets)
            leaders.add(index + 1)
        elif ins.op in ("ret", "exit"):
            leaders.add(index + 1)
        elif ins.op == "bar":
            # Resume point directly after the yield.
            leaders.add(index + 1)
    ordered = sorted(leader for leader in leaders
                     if leader <= len(instructions))
    return ordered, {leader: bid for bid, leader in enumerate(ordered)}


class KernelCodegen:
    """Emission shared by both generated engines: operand and
    expression source, instruction dispatch and basic-block layout.

    :class:`ThreadCodegen` turns a kernel into the per-thread generator
    function; :class:`BlockCodegen` turns it into the block function.
    The expression text of an instruction is the same for both (a lane
    vector and a Python scalar answer to the same operators); the
    subclasses differ in the helpers they name where Python has no
    polymorphic spelling, in how a result is bound to its register,
    and in memory access and control flow.
    """

    #: Helper names where a builtin only works on scalars.
    FLOAT = "float"
    INT = "int"
    MIN = "min"
    MAX = "max"

    def __init__(self, compiled, cost_model: CostModel):
        self.ck = compiled
        self.cost_model = cost_model
        self.gen = _Gen()
        self._declared: set[str] = set()

    # -- operand expressions --------------------------------------------------

    def _expr(self, operand) -> str:
        if isinstance(operand, Register):
            name = _mangle(operand.name)
            self._declared.add(name)
            return name
        if isinstance(operand, Immediate):
            return repr(operand.value)
        if isinstance(operand, SpecialReg):
            return _SPECIAL_LOCALS[operand.name]
        if isinstance(operand, Symbol):
            name = operand.name
            if name in self.ck.shared_layout:
                return repr(self.ck.shared_layout[name])
            if name not in self.ck.global_symbols:
                raise ExecutionError(f"unresolved symbol {name!r}")
            return f"_gsyms[{name!r}]"
        raise ExecutionError(f"cannot generate operand {operand!r}")

    def _address(self, memref: MemRef) -> str:
        base = memref.base
        if isinstance(base, (Register, Symbol)):
            expr = self._expr(base)
        else:
            raise ExecutionError(f"bad memory base {base!r}")
        if memref.offset:
            return f"({expr} + {memref.offset})"
        return expr

    # -- result binding ------------------------------------------------------------

    def _wrap_int(self, expr: str, dtype: str) -> str:
        """Truncate an integer expression to its register convention.

        Matches the interpreter (see ``KernelExecutor._set_reg``):
        all 64-bit integer types and all unsigned types wrap with a
        mask (hardware two's-complement address behaviour); narrower
        signed types stay natural Python ints.
        """
        if dtype in ("u8", "b8", "u16", "b16"):
            return f"(({expr}) & {_INT_MASKS[dtype]})"
        if dtype in ("u32", "b32"):
            return f"(({expr}) & {_MASK32})"
        if dtype in ("u64", "b64", "s64"):
            return f"(({expr}) & {_MASK64})"
        return expr

    def _set(self, dest, expr: str) -> None:
        """Bind ``expr`` to the register operand ``dest``."""
        self.gen.emit(f"{self._expr(dest)} = {expr}")

    def _assign(self, dest, expr: str, dtype: str) -> None:
        if dtype and not isa.is_float(dtype) and dtype != "pred":
            expr = self._wrap_int(expr, dtype)
        self._set(dest, expr)

    # -- instruction emission ------------------------------------------------------

    def _emit_body(self, ins) -> None:
        op = ins.op
        operands = ins.operands
        dtype = ins.dtype
        e = self._expr

        if op == "ld":
            self._emit_load(ins)
        elif op == "st":
            self._emit_store(ins)
        elif op in ("mov", "cvta"):
            self._assign(operands[0], e(operands[1]), dtype)
        elif op == "cvt":
            self._emit_cvt(ins)
        elif op == "add":
            self._assign(operands[0],
                         f"{e(operands[1])} + {e(operands[2])}", dtype)
        elif op == "sub":
            self._assign(operands[0],
                         f"{e(operands[1])} - {e(operands[2])}", dtype)
        elif op == "mul":
            self._emit_mul(ins)
        elif op in ("mad", "fma"):
            self._emit_mad(ins)
        elif op == "div":
            self._emit_div(ins)
        elif op == "rem":
            self._emit_rem(ins)
        elif op == "and":
            self._assign(operands[0],
                         f"{e(operands[1])} & {e(operands[2])}", dtype)
        elif op == "or":
            self._assign(operands[0],
                         f"{e(operands[1])} | {e(operands[2])}", dtype)
        elif op == "xor":
            self._assign(operands[0],
                         f"{e(operands[1])} ^ {e(operands[2])}", dtype)
        elif op == "not":
            self._assign(operands[0], f"~({e(operands[1])})", dtype)
        elif op == "shl":
            self._emit_shl(ins)
        elif op == "shr":
            self._emit_shr(ins)
        elif op == "min":
            self._assign(
                operands[0],
                f"{self.MIN}({e(operands[1])}, {e(operands[2])})", dtype)
        elif op == "max":
            self._assign(
                operands[0],
                f"{self.MAX}({e(operands[1])}, {e(operands[2])})", dtype)
        elif op == "neg":
            self._assign(operands[0], f"-({e(operands[1])})", dtype)
        elif op == "abs":
            self._assign(operands[0], f"abs({e(operands[1])})", dtype)
        elif op == "setp":
            self._emit_setp(ins)
        elif op == "selp":
            self._emit_selp(ins)
        elif op in _SFU_OPS:
            self._emit_sfu(ins)
        elif op == "atom":
            self._emit_atomic(ins)
        elif op == "nop":
            self.gen.emit("pass")
        else:
            raise ExecutionError(
                f"codegen: unimplemented opcode {ins.opcode!r}"
            )

    def _emit_cvt(self, ins) -> None:
        src = self._expr(ins.operands[1])
        if ins.dtype and isa.is_float(ins.dtype):
            self._assign(ins.operands[0], f"{self.FLOAT}({src})", ins.dtype)
        else:
            self._assign(ins.operands[0], f"{self.INT}({src})", ins.dtype)

    def _emit_mul(self, ins) -> None:
        e = self._expr
        a, b = e(ins.operands[1]), e(ins.operands[2])
        if "wide" in ins.opcode:
            narrow = ins.opcode.rsplit(".", 1)[-1]
            wide = "s64" if isa.is_signed(narrow) else "u64"
            self._assign(ins.operands[0], f"({a}) * ({b})", wide)
            return
        if "hi" in ins.opcode:
            self._emit_mul_hi(ins, a, b)
            return
        self._assign(ins.operands[0], f"({a}) * ({b})", ins.dtype)

    def _emit_mul_hi(self, ins, a: str, b: str) -> None:
        dtype = ins.dtype or "u32"
        bits = isa.type_width(dtype) * 8
        masked_a = self._wrap_int(a, dtype)
        masked_b = self._wrap_int(b, dtype)
        self._assign(ins.operands[0],
                     f"(({masked_a}) * ({masked_b})) >> {bits}", dtype)

    def _emit_mad(self, ins) -> None:
        e = self._expr
        a, b, c = (e(ins.operands[1]), e(ins.operands[2]),
                   e(ins.operands[3]))
        if "wide" in ins.opcode:
            narrow = ins.opcode.rsplit(".", 1)[-1]
            wide = "s64" if isa.is_signed(narrow) else "u64"
            self._assign(ins.operands[0], f"({a}) * ({b}) + ({c})", wide)
            return
        self._assign(ins.operands[0], f"({a}) * ({b}) + ({c})",
                     ins.dtype)

    def _emit_div(self, ins) -> None:
        e = self._expr
        dtype = ins.dtype or "u32"
        a, b = e(ins.operands[1]), e(ins.operands[2])
        if isa.is_float(dtype):
            self._assign(ins.operands[0], f"({a}) / ({b})", dtype)
        elif isa.is_signed(dtype):
            self._assign(ins.operands[0], f"_truncdiv({a}, {b})", dtype)
        else:
            self._assign(ins.operands[0], f"({a}) // ({b})", dtype)

    def _emit_rem(self, ins) -> None:
        e = self._expr
        a, b = e(ins.operands[1]), e(ins.operands[2])
        if ins.dtype and isa.is_signed(ins.dtype):
            self._assign(ins.operands[0], f"_truncrem({a}, {b})",
                         ins.dtype)
        else:
            self._assign(ins.operands[0], f"({a}) % ({b})", ins.dtype)

    def _emit_shl(self, ins) -> None:
        e = self._expr
        self._assign(ins.operands[0],
                     f"({e(ins.operands[1])}) << ({e(ins.operands[2])})",
                     ins.dtype)

    def _emit_shr(self, ins) -> None:
        e = self._expr
        dtype = ins.dtype
        source = self._wrap_int(e(ins.operands[1]), dtype or "u32")
        if dtype and isa.is_signed(dtype):
            # Arithmetic shift on the sign-corrected value.
            bits = isa.type_width(dtype) * 8
            half = 1 << (bits - 1)
            full = 1 << bits
            source = (f"(({source}) - {full} "
                      f"if ({source}) >= {half} else ({source}))")
        self._assign(ins.operands[0],
                     f"({source}) >> ({e(ins.operands[2])})", dtype)

    _COMPARES = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                 "gt": ">", "ge": ">="}

    def _compare_view(self, expr: str, dtype: str) -> str:
        """The reading of ``expr`` that ``setp.<dtype>`` compares."""
        if isa.is_float(dtype):
            return expr
        if isa.is_signed(dtype):
            return f"_sv{isa.type_width(dtype) * 8}({expr})"
        return self._wrap_int(expr, dtype)

    def _emit_setp(self, ins) -> None:
        dtype = ins.dtype or "u32"
        a = self._compare_view(self._expr(ins.operands[1]), dtype)
        b = self._compare_view(self._expr(ins.operands[2]), dtype)
        symbol = self._COMPARES[ins.compare]
        self._set(ins.operands[0], f"({a}) {symbol} ({b})")

    def _emit_selp(self, ins) -> None:
        e = self._expr
        operands = ins.operands
        self._assign(
            operands[0],
            f"({e(operands[1])}) if {e(operands[3])} "
            f"else ({e(operands[2])})",
            ins.dtype,
        )

    # -- basic blocks ------------------------------------------------------------------

    def _emit_block(self, instructions, start: int, end: int,
                    block_of: dict) -> None:
        static_cycles = 0
        count = 0
        for index in range(start, end):
            ins = instructions[index]
            static_cycles += ins.compute_cycles
            count += 1
            if ins.op in ("bra", "brx", "ret", "exit", "bar"):
                self._flush_static(static_cycles, count)
                static_cycles = count = 0
                if ins.op == "bra":
                    self._emit_branch(ins, block_of[ins.branch_target])
                elif ins.op == "brx":
                    self._emit_indirect_branch(
                        ins, tuple(block_of[t] for t in ins.brx_targets))
                elif ins.op == "bar":
                    self._emit_barrier(block_of[index + 1])
                else:
                    self._emit_return()
            elif ins.op == "call":
                raise ExecutionError(
                    "device-function calls are not executed by the "
                    "simulator"
                )
            else:
                self._emit_instruction(ins)
        self._flush_static(static_cycles, count)
        if end < len(instructions):
            # Fall through to the next block.
            self.gen.emit(f"_pc = {block_of[end]}; continue")
        else:
            self._emit_return()


class ThreadCodegen(KernelCodegen):
    """Generates the per-thread generator function of one kernel."""

    def _emit_instruction(self, ins) -> None:
        gen = self.gen
        if ins.guard_reg is not None:
            want = "not " if ins.guard_negated else ""
            guard_name = _mangle(ins.guard_reg)
            self._declared.add(guard_name)
            gen.emit(f"if {want}{guard_name}:")
            gen.indent += 1
            self._emit_body(ins)
            gen.indent -= 1
        else:
            self._emit_body(ins)

    def _emit_sfu(self, ins) -> None:
        source = f"float({self._expr(ins.operands[1])})"
        name = self._expr(ins.operands[0])
        self.gen.emit("try:")
        self.gen.indent += 1
        self.gen.emit(f"{name} = {SFU_FORMULAS[ins.op].format(source)}")
        self.gen.indent -= 1
        self.gen.emit("except (ValueError, ZeroDivisionError, "
                      "OverflowError):")
        self.gen.indent += 1
        self.gen.emit(f"{name} = _math.nan")
        self.gen.indent -= 1

    # -- memory ---------------------------------------------------------------------

    def _emit_load(self, ins) -> None:
        dest, memref = ins.operands
        dtype = ins.dtype or "b32"
        space = ins.space or "generic"
        gen = self.gen
        gen.emit("_loads += 1")
        if space == "param":
            index = self.ck.param_index.get(memref.base.name)
            if index is None:
                raise ExecutionError(
                    f"unknown parameter {memref.base.name!r}"
                )
            cost = self.cost_model.memory_cost("param")
            gen.emit(f"_cycles += {cost}")
            expr = f"params[{index}]"
            if isa.is_float(dtype):
                expr = f"float({expr})"
            self._assign(dest, expr, dtype)
            return
        address = self._address(memref)
        if space == "shared":
            gen.emit(f"_cycles += {SHARED_ACCESS_CYCLES}")
            unpacker = _SHARED_STRUCTS[dtype]
            self._assign(
                dest, f"{unpacker}.unpack_from(shared, {address})[0]",
                dtype)
        elif space == "local":
            cost = self.cost_model.memory_cost("local")
            gen.emit(f"_cycles += {cost}")
            unpacker = _SHARED_STRUCTS[dtype]
            self._assign(
                dest, f"{unpacker}.unpack_from(_local(t), {address})[0]",
                dtype)
        else:
            name = self._expr(dest)
            gen.emit(f"{name}, _mc = _ldg_{dtype}({address})")
            gen.emit("_cycles += _mc")

    def _emit_store(self, ins) -> None:
        memref, source = ins.operands
        dtype = ins.dtype or "b32"
        space = ins.space or "generic"
        gen = self.gen
        gen.emit("_stores += 1")
        address = self._address(memref)
        value = self._expr(source)
        if space == "shared":
            gen.emit(f"_cycles += {SHARED_ACCESS_CYCLES}")
            self._emit_buffer_store("shared", dtype, address, value)
        elif space == "local":
            cost = self.cost_model.memory_cost("local")
            gen.emit(f"_cycles += {cost}")
            self._emit_buffer_store("_local(t)", dtype, address, value)
        else:
            if isa.is_float(dtype):
                value = f"float({value})"
            gen.emit(f"_cycles += _stg_{dtype}({address}, {value})")

    def _emit_buffer_store(self, buffer: str, dtype: str, address: str,
                           value: str) -> None:
        packer = _SHARED_STRUCTS[dtype]
        if isa.is_float(dtype):
            value = f"float({value})"
        else:
            value = self._wrap_int(value, dtype)
            if isa.is_signed(dtype):
                bits = isa.type_width(dtype) * 8
                value = (f"(({value}) - {1 << bits} "
                         f"if ({value}) >= {1 << (bits - 1)} "
                         f"else ({value}))")
        self.gen.emit(f"{packer}.pack_into({buffer}, {address}, {value})")

    def _emit_atomic(self, ins) -> None:
        dest, memref, operand = ins.operands
        dtype = ins.dtype or "u32"
        parts = ins.opcode.split(".")
        mode = next(
            (p for p in parts if p in ("add", "max", "min", "exch")),
            None,
        )
        if mode is None:
            raise ExecutionError(f"unimplemented atomic {ins.opcode!r}")
        gen = self.gen
        gen.emit("_loads += 1")
        gen.emit("_stores += 1")
        address = self._address(memref)
        name = self._expr(dest)
        gen.emit(
            f"{name}, _mc = _atom({mode!r}, {dtype!r}, {address}, "
            f"{self._expr(operand)})"
        )
        gen.emit("_cycles += _mc")

    # -- control flow ------------------------------------------------------------------

    def _flush_static(self, cycles: int, count: int) -> None:
        if count:
            self.gen.emit(f"_cycles += {cycles}; _instr += {count}")

    def _emit_branch(self, ins, target: int) -> None:
        gen = self.gen
        if ins.guard_reg is not None:
            want = "not " if ins.guard_negated else ""
            guard_name = _mangle(ins.guard_reg)
            self._declared.add(guard_name)
            gen.emit(f"if {want}{guard_name}:")
            gen.indent += 1
            gen.emit(f"_pc = {target}; continue")
            gen.indent -= 1
        else:
            gen.emit(f"_pc = {target}; continue")

    def _emit_indirect_branch(self, ins, targets: tuple) -> None:
        gen = self.gen
        gen.emit(f"_brx_i = {self._expr(ins.operands[0])}")
        gen.emit(f"if not 0 <= _brx_i < {len(targets)}:")
        gen.indent += 1
        gen.emit("raise ExecutionError("
                 "'brx.idx index %d out of range' % _brx_i)")
        gen.indent -= 1
        gen.emit(f"_pc = {targets}[_brx_i]; continue")

    def _emit_barrier(self, next_block: int) -> None:
        self.gen.emit("yield")
        self.gen.emit(f"_pc = {next_block}; continue")

    def _emit_return(self) -> None:
        self.gen.emit("break")

    # -- whole-kernel generation -------------------------------------------------------

    def generate(self) -> str:
        instructions = self.ck.instructions
        ordered, block_of = basic_blocks(instructions)

        gen = self.gen
        gen.emit("def _thread(t, params, shared, _gsyms):")
        gen.indent += 1
        gen.emit("_cycles = 0; _instr = 0; _loads = 0; _stores = 0")
        gen.emit("_steps = 0")
        gen.emit("_tid0, _tid1, _tid2 = t.tid")
        gen.emit("_ntid0, _ntid1, _ntid2 = t.ntid")
        gen.emit("_ctaid0, _ctaid1, _ctaid2 = t.ctaid")
        gen.emit("_nctaid0, _nctaid1, _nctaid2 = t.nctaid")
        gen.emit("_lane = t.lane; _warp = t.warp")
        body_start = len(gen.lines)
        gen.emit("_pc = 0")
        gen.emit("while True:")
        gen.indent += 1
        gen.emit("_steps += 1")
        gen.emit(f"if _steps > {MAX_BLOCK_STEPS}:")
        gen.indent += 1
        gen.emit("raise ExecutionError('runaway kernel "
                 f"{self.ck.name}')")
        gen.indent -= 1

        for block_id, leader in enumerate(ordered[:-1]):
            gen.emit(f"{'elif' if block_id else 'if'} _pc == {block_id}:")
            gen.indent += 1
            self._emit_block(instructions, leader, ordered[block_id + 1],
                             block_of)
            gen.indent -= 1
        gen.emit("else:" if len(ordered) > 1 else "if True:")
        gen.indent += 1
        gen.emit("break")
        gen.indent -= 1
        gen.indent -= 1
        gen.emit("t.cycles += _cycles; t.instructions += _instr")
        gen.emit("t.loads += _loads; t.stores += _stores")
        gen.emit("return")
        gen.emit("if False:")
        gen.indent += 1
        gen.emit("yield")  # make _thread a generator even barrier-free
        gen.indent -= 1
        gen.indent -= 1

        # Initialise every register local touched by the body.
        if self._declared:
            init = "; ".join(f"{name} = 0"
                             for name in sorted(self._declared))
            gen.lines.insert(body_start, "    " + init)
        return gen.source()


# --------------------------------------------------------------------------
# Generated code, shared by content
# --------------------------------------------------------------------------


class KernelCode:
    """The generated code of one kernel *content*.

    Two :class:`~repro.gpu.executor.CompiledKernel` objects with equal
    instructions, layout and costs (the same library loaded by another
    tenant, module or swap-in) share one instance, so the source is
    generated and compiled once per process. Code objects hold no
    device or module state: helpers arrive through the function's
    globals (one function object per executor, built by
    :meth:`bind_thread` / :meth:`bind_block`) and module-scope symbol
    addresses through the ``_gsyms`` argument at call time.
    """

    def __init__(self, spannable: bool):
        self._thread = None
        #: ``(code, exits, access shifts)``, or the Unsupported reason.
        self._block = None
        #: No ``.shared`` and no ``bar``: a thread's only tie to its
        #: block is ``%ctaid``, so the block engine may run several
        #: blocks of a launch in one pass.
        self.spannable = spannable

    def bind_thread(self, compiled, cost_model: CostModel, env: dict):
        if self._thread is None:
            source = ThreadCodegen(compiled, cost_model).generate()
            self._thread = _function_code(
                source, f"<guardian-jit:{compiled.name}>", "_thread")
        return types.FunctionType(self._thread, env, "_thread")

    def bind_block(self, compiled, cost_model: CostModel, env: dict):
        """``(block function, exits, access shifts)``, or None when
        the kernel stays on the per-thread engine."""
        if self._block is None:
            # Imported on first use: a process that only ever launches
            # small blocks never loads the block engine.
            from repro.gpu.blockgen import BlockCodegen, Unsupported

            generator = BlockCodegen(compiled, cost_model)
            try:
                source, exits = generator.generate()
            except Unsupported as reason:
                self._block = str(reason)
            else:
                code = _function_code(
                    source, f"<guardian-block:{compiled.name}>", "_block")
                self._block = (code, exits, generator.access_shifts)
        if isinstance(self._block, str):
            return None
        code, exits, shifts = self._block
        return types.FunctionType(code, env, "_block"), exits, shifts

    @property
    def block_unsupported_reason(self) -> Optional[str]:
        return self._block if isinstance(self._block, str) else None


def _function_code(source: str, filename: str, name: str):
    scope: dict = {}
    exec(compile(source, filename, "exec"), scope)
    return scope[name].__code__


#: content key -> KernelCode. Weak: an entry lives exactly as long as
#: some CompiledKernel (which holds its KernelCode) does.
_CODE_BY_CONTENT: "weakref.WeakValueDictionary" = (
    weakref.WeakValueDictionary())


def kernel_code(compiled, cost_model: CostModel) -> KernelCode:
    """The shared :class:`KernelCode` of ``compiled`` (looked up once
    per kernel object, then held by it)."""
    code = compiled.code
    if code is None:
        key = (
            compiled.name,
            tuple(
                (ins.opcode, ins.operands, ins.guard_reg,
                 ins.guard_negated, ins.compute_cycles, ins.branch_target,
                 ins.brx_targets)
                for ins in compiled.instructions
            ),
            tuple(compiled.param_index.items()),
            tuple(compiled.shared_layout.items()),
            compiled.shared_bytes,
            frozenset(compiled.global_symbols),
            tuple(
                (s.prefix, s.reg_type, s.count)
                for s in compiled.kernel.body if isinstance(s, RegDecl)
            ),
            cost_model.memory_cost("param"),
            cost_model.memory_cost("local"),
        )
        code = _CODE_BY_CONTENT.get(key)
        if code is None:
            code = _CODE_BY_CONTENT[key] = KernelCode(
                spannable=not compiled.shared_bytes and not any(
                    ins.op == "bar" or ins.space == "shared"
                    for ins in compiled.instructions))
        compiled.code = code
    return code
