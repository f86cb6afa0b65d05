"""Python code generation for compiled kernels (the simulator's JIT).

The reference interpreter in :mod:`repro.gpu.executor` dispatches every
instruction dynamically (~10 us each) — faithful but far too slow for
the paper's benchmark matrix. This module compiles each kernel's
decoded instruction list into one specialised Python function that
runs every thread of a block in turn (a generator per thread for a
kernel with ``bar``, whose threads must meet at the barrier):

- virtual registers become Python locals,
- basic blocks run in order, or as a ``while True`` state machine
  when a branch goes back,
- per-block static cycle/instruction counts are folded into single
  additions,
- global loads/stores are inline (L1 way-0 compare, in-page access);
  a fault or any other cache outcome calls a pre-bound helper.

Semantics are the interpreter's: f32 is held in double and rounded
only by a store's pack (infinity beyond the f32 range), a
never-written register reads 0, ``cvt`` writes its destination type,
a shift amount is read as u32, float division by zero and a special
function's overflow or pole give IEEE's infinity or NaN and integer
division by zero kills the kernel. Memory effects, errors, counters, warp cycles
and cache lines are identical, which the differential tests
(``tests/gpu/test_codegen_differential.py``) assert byte for byte.

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

import contextlib
import math
import struct
import types
import weakref
from typing import Optional

from repro.errors import ExecutionError, MemoryFault
from repro.gpu.latency import SHARED_ACCESS_CYCLES, CostModel
from repro.gpu.memory import PAGE_SIZE, GlobalMemory, f32_overflow
from repro.ptx import isa
from repro.ptx.ast import (
    Immediate,
    MemRef,
    RegDecl,
    Register,
    SpecialReg,
    Symbol,
)

#: Watchdog: a single thread entering more basic blocks than this is
#: a runaway kernel (the reference interpreter counts the same unit).
MAX_BLOCK_STEPS = 2_000_000

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

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


#: Float-to-integer rounding of ``cvt``: to nearest even, toward zero,
#: down, up. PTX spells them ``.rni``/``.rzi``/``.rmi``/``.rpi``; the
#: float spellings ``.rn``... are read the same way.
ROUNDINGS = {"rn": round, "rz": math.trunc, "rm": math.floor,
             "rp": math.ceil}


def cvt_source(opcode: str) -> tuple[str, str]:
    """``(source type, rounding)`` of a ``cvt``: its last type suffix
    (the first is the destination) and its :data:`ROUNDINGS` key,
    ``"rz"`` (a C cast) when it names none."""
    parts = opcode.split(".")
    return ([part for part in parts if part in isa.TYPE_WIDTHS][-1],
            next((part[:2] for part in parts
                  if part.rstrip("i") in ROUNDINGS), "rz"))


def cvt_float_rule(opcode: str) -> tuple:
    """``(integral rounding, saturate)`` of a ``cvt`` to a float type:
    the :data:`ROUNDINGS` key of its ``.rni``/``.rzi``/``.rmi``/``.rpi``
    (None for a plain float rounding mode, which changes nothing here)
    and whether it has ``.sat``."""
    parts = opcode.split(".")
    return (next((part[:2] for part in parts
                  if part[-1:] == "i" and part[:2] in ROUNDINGS), None),
            "sat" in parts)


def float_cvt(value: float, integral, saturate: bool) -> float:
    """PTX's float-to-float ``cvt``: rounded to an integral value in
    the direction ``integral`` names (the sign of a zero kept), then,
    with ``.sat``, clamped to [0, 1] with NaN to +0.0."""
    if integral is not None and math.isfinite(value):
        value = math.copysign(float(ROUNDINGS[integral](value)), value)
    if saturate:
        return min(value, 1.0) if value > 0.0 else 0.0
    return value


def int_range(dtype: str) -> tuple[int, int]:
    """The least and greatest value of an integer type."""
    high = _INT_MASKS[dtype] >> isa.is_signed(dtype)
    return (~high if isa.is_signed(dtype) else 0), high


def float_to_int(value, rounding: str, low: int, high: int) -> int:
    """PTX's float-to-integer ``cvt``: NaN gives 0, anything else is
    rounded and clamped to ``[low, high]``."""
    if value != value:
        return 0
    if value <= low:
        return low
    if value >= high:
        return high
    return ROUNDINGS[rounding](value)


def ieee_div(a, b):
    """``a / b`` in IEEE arithmetic, where Python raises: ``x / ±0`` is
    infinity signed by both operands, ``0 / 0`` and ``NaN / 0`` NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def ptx_min(a, b):
    """PTX ``min`` of two operands already read as their type: a float
    NaN operand gives the other one (NaN only when both are)."""
    if a != a:
        return b
    return a if b != b else min(a, b)


def ptx_max(a, b):
    """PTX ``max``, NaN as :func:`ptx_min`."""
    if a != a:
        return b
    return a if b != b else max(a, b)


def _f64(bits: int) -> float:
    """The double with these bits (a NaN keeps its sign and payload)."""
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Generated code spells a non-finite constant ``_f64(bits)``: ``repr``
#: gives ``inf`` or ``nan``, which no scope binds. In both engines'
#: globals.
NONFINITE_ENV = {"_f64": _f64}


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
        return resolve_l2(line)

    def resolve_l2(line):
        """The L2 half of :func:`resolve`, for a line the L1 missed:
        touch the L2; return the access latency."""
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
                    try:
                        pack(page, in_page, value)
                    except OverflowError:
                        pack(page, in_page, f32_overflow(value))
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
    env["_resolve_l2"] = resolve_l2
    # What _INLINE_ACCESS reads. An aligned access cannot straddle a page
    # unless the base is not 8-aligned; such a memory gets no window.
    top = limit if base % 8 == 0 else base
    env.update(_P=pages, _GB=base, _S1=l1_sets, _N1=l1_num, _B1=line_bytes,
               _C1=cost_l1, _l1_stats=l1_stats, _level_counts=counts,
               **{f"_GL{width}": top - width for width in (1, 2, 4, 8)})
    return env


def _make_signed_view(bits: int):
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits

    def view(value):
        value &= mask
        return value - full if value >= half else value

    return view


def buffer_fault(buffer, offset: int, width: int) -> None:
    """The kill for a shared or local access outside its buffer. The
    interpreter checks every access; generated code asks only once
    ``struct`` refused one, so an offset fails the same way everywhere
    and a value no type holds still raises its own error."""
    if offset < 0 or offset + width > len(buffer):
        raise ExecutionError(
            f"shared/local access at {offset} outside buffer of "
            f"{len(buffer)} bytes"
        )


_BASE_ENV = {
    "_truncdiv": _truncdiv,
    "_truncrem": _truncrem,
    "_ieee_div": ieee_div,
    "_min": ptx_min,
    "_max": ptx_max,
    "_f2i": float_to_int,
    "_f2f": float_cvt,
    "_f32inf": f32_overflow,
    **NONFINITE_ENV,
    "_sv8": _make_signed_view(8),
    "_sv16": _make_signed_view(16),
    "_sv32": _make_signed_view(32),
    "_sv64": _make_signed_view(64),
    "_math": math,
    "ExecutionError": ExecutionError,
    "_buffer_fault": buffer_fault,
    "_BUFFER_FAULTS": (struct.error, OverflowError, IndexError),
    "_sF32": struct.Struct("<f"), "_sF64": struct.Struct("<d"),
    "_sU8": struct.Struct("<B"), "_sS8": struct.Struct("<b"),
    "_sU16": struct.Struct("<H"), "_sS16": struct.Struct("<h"),
    "_sU32": struct.Struct("<I"), "_sS32": struct.Struct("<i"),
    "_sU64": struct.Struct("<Q"), "_sS64": struct.Struct("<q"),
}
# The struct methods an inlined global access calls: _uF32, _pF32, ...
_BASE_ENV.update(
    (f"_{kind}{name[2:]}", getattr(_BASE_ENV[name], method))
    for name in set(_SHARED_STRUCTS.values())
    for kind, method in (("u", "unpack_from"), ("p", "pack_into")))


def thread_env(memory_env: dict, local_bytes: int) -> dict:
    """Globals of one executor's per-thread functions: the helpers of
    :func:`make_memory_helpers` plus the size of a thread's ``.local``
    buffer."""
    return {**_BASE_ENV, **memory_env, "_LOCAL_BYTES": local_bytes}


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


def sfu_limit(op: str, x: float) -> float:
    """What the special-function op ``op`` gives at ``x`` where its
    formula raises: IEEE's infinity at an overflow (``ex2``) or a pole
    (``rcp``/``rsqrt`` of a signed zero, ``lg2`` of zero), NaN outside
    the domain."""
    if op == "lg2" and x == 0:
        return -math.inf
    if op in ("rcp", "rsqrt") and x == 0:
        return math.copysign(math.inf, x)
    if op == "ex2" and x > 0:
        return math.inf
    return math.nan


_BASE_ENV["_sfu_limit"] = sfu_limit


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


def _targets(ins) -> tuple:
    if ins.op == "bra":
        return (ins.branch_target,)
    return ins.brx_targets if ins.op == "brx" else ()


#: Ops whose first operand is not a register they write.
_NO_DEST = frozenset({"st", "bra", "brx", "ret", "exit", "bar", "call",
                      "nop"})


def _written(ins) -> Optional[str]:
    """The name of the register ``ins`` writes, if any."""
    if (ins.op not in _NO_DEST and ins.operands
            and isinstance(ins.operands[0], Register)):
        return ins.operands[0].name
    return None


def invariant_prefix(instructions) -> int:
    """Length of the launch-invariant prefix: the longest run of
    unguarded instructions opening the entry block (if no branch
    re-enters it) that write a register from ``ld.param``, immediates,
    ``%ctaid``/``%ntid``/``%nctaid`` and registers the run wrote."""
    if any(0 in _targets(ins) for ins in instructions):
        return 0
    ordered, _ = basic_blocks(instructions)
    entry_end = ordered[1] if len(ordered) > 1 else 0
    written = set()
    for index in range(entry_end):
        ins = instructions[index]
        if ins.guard_reg is not None or ins.op in _NO_DEST or ins.op in (
                "atom", "ld") and ins.route != isa.PARAM:
            return index
        dest, *sources = ins.operands or (None,)
        if not isinstance(dest, Register) or ins.op != "ld" and not all(
                isinstance(operand, Immediate)
                or isinstance(operand, Register) and operand.name in written
                or isinstance(operand, SpecialReg) and operand.name[:-2]
                in ("%ntid", "%ctaid", "%nctaid")
                for operand in sources):
            return index
        written.add(dest.name)
    return entry_end


#: Integer types the JIT wraps with the 64-bit mask: a result bound
#: through one of them lies in [0, 2**64).
_WIDE = frozenset({"u64", "b64", "s64"})

_BITWISE = {"and": "&", "or": "|", "xor": "^"}


def _binds_wide(ins) -> bool:
    """Whether the JIT binds the result of ``ins`` through the 64-bit
    wrap (``_assign`` with a type in ``_WIDE``)."""
    op = ins.op
    if (op in ("setp", "atom") or op in _SFU_OPS
            or op == "ld" and ins.route == isa.DEVICE):
        return False
    if op in ("mul", "mad") and "wide" in ins.opcode:
        return True  # to u64 or s64
    return ins.dtype in _WIDE


def unwrapped_registers(instructions) -> frozenset:
    """Names of the registers some instruction binds without the 64-bit
    wrap. Every other register holds a value in [0, 2**64) whenever it
    is read: each write wraps it, and a never-written one reads 0."""
    return frozenset(_written(ins) for ins in instructions
                     if _written(ins) and not _binds_wide(ins))


def _fence_pair(first, second):
    """``(X, pair)`` when ``first; second`` is an unguarded ``and X, X,
    M; or X, X, B`` with M and B registers other than X, or immediates;
    else None."""
    if (second is None or first.op != "and" or second.op != "or"
            or first.guard_reg is not None or second.guard_reg is not None
            or len(first.operands) != 3 or len(second.operands) != 3):
        return None
    x, a, mask = first.operands
    y, c, base = second.operands
    if not isinstance(x, Register) or not x == a == y == c or any(
            operand == x or not isinstance(operand, (Register, Immediate))
            for operand in (mask, base)):
        return None
    return x.name, (first.opcode, mask, second.opcode, base)


def fence_repeats(instructions) -> frozenset:
    """Indices of the fence pairs (:func:`_fence_pair`) whose register
    already holds their result: the same pair ran earlier in the basic
    block, and no instruction since (guarded or not) wrote X, M or B.
    With ``f(x) = ((x & m) & w1 | b) & w2`` for any wrap masks w1, w2,
    ``f(f(x)) == f(x)`` for every integer x, so the pair is charged
    and not evaluated."""
    leaders = set(basic_blocks(instructions)[0])
    repeats = set()
    held: dict = {}  # X -> the pair whose result X holds

    def clobber(name):
        for x, (_, mask, _, base) in list(held.items()):
            if name in (x, getattr(mask, "name", None),
                        getattr(base, "name", None)):
                del held[x]

    index = 0
    while index < len(instructions):
        if index in leaders:
            held.clear()
        ins = instructions[index]
        pair = _fence_pair(ins, None if index + 1 in leaders
                           else instructions[index + 1])
        if pair is not None:
            x, key = pair
            if held.get(x) == key:
                repeats.update((index, index + 1))
            clobber(x)
            held[x] = key
            index += 2
            continue
        if _written(ins):
            clobber(_written(ins))
        index += 1
    return frozenset(repeats)


#: A global ld/st: if aligned and mapped, the L1 way-0 compare (else
#: ``_resolve``) and the in-page access; if not, the faulting helper.
_INLINE_ACCESS = f"""\
_a = {{address}}
if not _a % {{width}} and _GB <= _a <= _GL{{width}}:
    _ln = _a // _B1; _ways = _S1[_ln % _N1]
    if _ways and _ways[0] == _ln // _N1:
        _hits += 1; _cycles += _C1
    else:
        _cycles += _resolve(_a)
    _o = _a - _GB; _pi = _o // {PAGE_SIZE}; _pg = _P.get(_pi)
{{access}}
else:
    {{helper}}"""
_FOLD_HITS = '_l1_stats.hits += _hits; _level_counts["l1"] += _hits'


def _packs(call: str, value: str, dtype: str) -> list:
    """Source lines of ``call`` (a format string) packing ``value``.
    An f32 beyond its range packs as f32 rounding gives, infinity,
    where ``struct`` raises: a handler that costs nothing until then."""
    if dtype != "f32":
        return [call.format(value)]
    return ["try:", "    " + call.format(value), "except OverflowError:",
            "    " + call.format(f"_f32inf({value})")]


class KernelCodegen:
    """Emission shared by both generated engines: operand and
    expression source, instruction dispatch and basic-block layout.

    :class:`ThreadCodegen` turns a kernel into the per-thread
    function; :class:`BlockCodegen` turns it into the block function.
    The expression text of an instruction is the same for both (a lane
    vector and a Python scalar answer to the same operators); the
    subclasses differ in the helpers they name where Python has no
    polymorphic spelling, in how a result is bound to its register,
    and in memory access and control flow.
    """

    #: Helper name where a builtin only works on scalars.
    FLOAT = "float"

    def __init__(self, compiled, cost_model: CostModel):
        self.ck = compiled
        self.cost_model = cost_model
        self.gen = _Gen()
        self._declared: set[str] = set()
        #: Indices of instructions charged but not emitted: their
        #: registers already hold what they would compute.
        self._held: frozenset = frozenset()

    # -- operand expressions --------------------------------------------------

    def _expr(self, operand) -> str:
        if isinstance(operand, Register):
            name = _mangle(operand.name)
            self._declared.add(name)
            return name
        if isinstance(operand, Immediate):
            value = operand.value
            if isinstance(value, float) and not math.isfinite(value):
                bits = struct.unpack("<Q", struct.pack("<d", value))[0]
                return f"_f64({bits:#x})"
            return repr(value)
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
        elif op in ("min", "max"):
            a, b = self._typed_operands(ins, dtype)
            self._assign(operands[0], f"_{op}({a}, {b})", dtype)
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
        """Convert to the destination type (``ins.dtype``) from the
        source read as its own type."""
        dtype = ins.dtype
        source, rounding = cvt_source(ins.opcode)
        value = self._expr(ins.operands[1])
        if isa.is_float(source) and not isa.is_float(dtype):
            low, high = int_range(dtype)
            value = f"_f2i({value}, {rounding!r}, {low}, {high})"
        elif isa.is_float(dtype):
            value = f"{self.FLOAT}({self._compare_view(value, source)})"
            integral, saturate = cvt_float_rule(ins.opcode)
            if integral is not None or saturate:
                value = f"_f2f({value}, {integral!r}, {saturate})"
        else:
            # Extend from the source's width; the destination's wrap
            # truncates (a signed narrow destination has none).
            if isa.type_width(source) < isa.type_width(dtype):
                value = self._int_view(value, source)
            if isa.is_signed(dtype) and dtype not in _WIDE:
                value = self._int_view(value, dtype)
        self._assign(ins.operands[0], value, dtype)

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

    def _typed_operands(self, ins, dtype: str) -> tuple[str, str]:
        """The operands of a ``div``/``rem``/``min``/``max``: an integer
        one reads them as its type."""
        a, b = self._expr(ins.operands[1]), self._expr(ins.operands[2])
        if isa.is_float(dtype):
            return a, b
        return self._int_view(a, dtype), self._int_view(b, dtype)

    def _emit_div(self, ins) -> None:
        dtype = ins.dtype or "u32"
        a, b = self._typed_operands(ins, dtype)
        if isa.is_float(dtype):
            self._assign(ins.operands[0], f"({a}) / ({b})", dtype)
        elif isa.is_signed(dtype):
            self._assign(ins.operands[0], f"_truncdiv({a}, {b})", dtype)
        else:
            self._assign(ins.operands[0], f"({a}) // ({b})", dtype)

    def _emit_rem(self, ins) -> None:
        a, b = self._typed_operands(ins, ins.dtype or "u32")
        if ins.dtype and isa.is_signed(ins.dtype):
            self._assign(ins.operands[0], f"_truncrem({a}, {b})",
                         ins.dtype)
        else:
            self._assign(ins.operands[0], f"({a}) % ({b})", ins.dtype)

    def _shift_amount(self, ins) -> str:
        """PTX reads a shift amount as u32 and clamps it to the width:
        a longer shift fills (and builds no huge Python integer)."""
        amount = ins.operands[2]
        bits = isa.type_width(ins.dtype or "u32") * 8
        if isinstance(amount, Immediate) and type(amount.value) is int:
            return str(min(amount.value & _MASK32, bits))
        return f"min({self._expr(amount)} & {_MASK32}, {bits})"

    def _emit_shl(self, ins) -> None:
        self._assign(ins.operands[0], f"({self._expr(ins.operands[1])}) << "
                     f"({self._shift_amount(ins)})", ins.dtype)

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
                     f"({source}) >> ({self._shift_amount(ins)})", dtype)

    _COMPARES = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=",
                 "gt": ">", "ge": ">="}

    def _compare_view(self, expr: str, dtype: str) -> str:
        """The reading of ``expr`` that ``setp.<dtype>`` compares."""
        if isa.is_float(dtype):
            return expr
        if isa.is_signed(dtype):
            return f"_sv{isa.type_width(dtype) * 8}({expr})"
        return self._wrap_int(expr, dtype)

    def _int_view(self, expr: str, dtype: str) -> str:
        """``expr`` read as an integer of ``dtype``, as a register
        value."""
        return self._compare_view(expr, dtype)

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
                    self._emit_exit(ins)
            elif ins.op == "call":
                raise ExecutionError(
                    "device-function calls are not executed by the "
                    "simulator"
                )
            elif index not in self._held:
                if any(isinstance(operand, SpecialReg)
                       and operand.name == "%clock"
                       for operand in ins.operands):
                    # %clock counts the cycles so far, this
                    # instruction's included (the interpreter's order).
                    self._flush_static(static_cycles, count)
                    static_cycles = count = 0
                self._emit_instruction(ins)
        self._flush_static(static_cycles, count)
        if end < len(instructions):
            self._goto(block_of[end])  # fall through
        else:
            self._emit_return()

    def _goto(self, target) -> None:
        self.gen.emit(f"_pc = {target}; continue")


class ThreadCodegen(KernelCodegen):
    """Generates the per-thread function of one kernel (see
    :meth:`generate`)."""

    def __init__(self, compiled, cost_model: CostModel):
        super().__init__(compiled, cost_model)
        instructions = compiled.instructions
        #: No back edge: the basic blocks run in order, no dispatch loop.
        self.acyclic = all(target > index for index, ins
                           in enumerate(instructions)
                           for target in _targets(ins))
        self._held = fence_repeats(instructions)
        self._unwrapped = unwrapped_registers(instructions)

    @contextlib.contextmanager
    def _guarded(self, ins, transfer: bool = False):
        """Source emitted inside the ``with`` runs only when ``ins``'s
        guard holds (always for an unguarded instruction). After a taken
        ``transfer`` an acyclic kernel's arm goes on under ``else`` (of
        ``if True:`` if unguarded, which the compiler drops)."""
        transfer = transfer and self.acyclic
        if ins.guard_reg is None and not transfer:
            yield
            return
        test = "True"
        if ins.guard_reg is not None:
            self._declared.add(_mangle(ins.guard_reg))
            test = ("not " if ins.guard_negated else "") + _mangle(
                ins.guard_reg)
        self.gen.emit(f"if {test}:")
        self.gen.indent += 1
        yield
        self.gen.indent -= 1
        if transfer:
            self.gen.emit("else:")
            self.gen.indent += 1

    def _emit_instruction(self, ins) -> None:
        with self._guarded(ins):
            self._emit_body(ins)

    def _emit_body(self, ins) -> None:
        symbol = _BITWISE.get(ins.op)
        if symbol is None or ins.dtype not in _WIDE:
            super()._emit_body(ins)
            return
        dest, a, b = ins.operands[0], ins.operands[1], ins.operands[2]
        in_range = [self._in_range(a), self._in_range(b)]
        if any(in_range) if ins.op == "and" else all(in_range):
            # The result is in [0, 2**64) already: the wrap is a no-op.
            self._set(dest, f"{self._expr(a)} {symbol} {self._expr(b)}")
        else:
            super()._emit_body(ins)

    def _in_range(self, operand) -> bool:
        """Whether ``operand`` always reads a value in [0, 2**64)."""
        if isinstance(operand, Register):
            return operand.name not in self._unwrapped
        return (isinstance(operand, Immediate)
                and type(operand.value) is int
                and 0 <= operand.value <= _MASK64)

    def _emit_div(self, ins) -> None:
        self._zero_divisor(ins, super()._emit_div, "division")

    def _emit_rem(self, ins) -> None:
        self._zero_divisor(ins, super()._emit_rem, "remainder")

    def _zero_divisor(self, ins, emit, what: str) -> None:
        """Emit ``ins`` inside a ``try`` (free until it raises) whose
        handler gives IEEE's answer to a float division by zero, and
        the interpreter's kill to an integer one."""
        gen = self.gen
        gen.emit("try:")
        gen.indent += 1
        emit(ins)
        gen.indent -= 1
        gen.emit("except ZeroDivisionError:")
        if isa.is_float(ins.dtype or "u32"):
            dest, a, b = (self._expr(operand) for operand in ins.operands)
            gen.emit(f"    {dest} = _ieee_div({a}, {b})")
        else:
            gen.emit(f"    raise ExecutionError('integer {what} by zero') "
                     "from None")

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
        self.gen.emit(f"{name} = _sfu_limit({ins.op!r}, {source})")
        self.gen.indent -= 1

    # -- memory ---------------------------------------------------------------------

    def _emit_load(self, ins) -> None:
        dest, memref = ins.operands
        dtype = ins.dtype or "b32"
        route = ins.route
        gen = self.gen
        gen.emit("_loads += 1")
        if route == isa.PARAM:
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
        if route in (isa.SHARED, isa.LOCAL):
            if route == isa.SHARED:
                buffer, cost = "shared", SHARED_ACCESS_CYCLES
            else:
                buffer, cost = "_lmem", self.cost_model.memory_cost("local")
            gen.emit(f"_cycles += {cost}")
            unpacker = _SHARED_STRUCTS[dtype]
            with self._buffer_access(buffer, memref, dtype):
                self._assign(
                    dest, f"{unpacker}.unpack_from({buffer}, {address})[0]",
                    dtype)
        else:
            name = self._expr(dest)
            zero = "0.0" if isa.is_float(dtype) else "0"
            self._emit_global(
                dtype, address,
                [f"{name} = _u{_SHARED_STRUCTS[dtype][2:]}(_pg, _o % "
                 f"{PAGE_SIZE})[0] if _pg is not None else {zero}"],
                f"{name}, _mc = _ldg_{dtype}(_a); _cycles += _mc")

    def _emit_store(self, ins) -> None:
        memref, source = ins.operands
        dtype = ins.dtype or "b32"
        route = ins.route
        gen = self.gen
        gen.emit("_stores += 1")
        address = self._address(memref)
        value = self._expr(source)
        if route == isa.SHARED:
            gen.emit(f"_cycles += {SHARED_ACCESS_CYCLES}")
            self._emit_buffer_store("shared", dtype, memref, value)
        elif route == isa.LOCAL:
            cost = self.cost_model.memory_cost("local")
            gen.emit(f"_cycles += {cost}")
            self._emit_buffer_store("_lmem", dtype, memref, value)
        else:
            access = ["if _pg is None: "
                      f"_pg = _P[_pi] = bytearray({PAGE_SIZE})"]
            if isa.is_float(dtype):
                gen.emit(f"_v = float({value})")  # the helper's argument
                value = "_v"
            else:
                # As the helper: page first, then mask in place.
                access.append(f"_v = {value}; _v &= {_INT_MASKS[dtype]}")
                if isa.is_signed(dtype):
                    bits = isa.type_width(dtype) * 8
                    access.append(f"if _v >= {1 << (bits - 1)}: "
                                  f"_v -= {1 << bits}")
            access += _packs(f"_p{_SHARED_STRUCTS[dtype][2:]}(_pg, _o % "
                             f"{PAGE_SIZE}, {{}})", "_v", dtype)
            self._emit_global(dtype, address, access,
                              f"_cycles += _stg_{dtype}(_a, {value})")

    def _emit_global(self, dtype: str, address: str, access: list,
                     helper: str) -> None:
        source = _INLINE_ACCESS.format(
            address=address, width=isa.type_width(dtype), helper=helper,
            access="\n".join("    " + line for line in access))
        for line in source.split("\n"):
            self.gen.emit(line)

    def _emit_buffer_store(self, buffer: str, dtype: str, memref: MemRef,
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
        with self._buffer_access(buffer, memref, dtype):
            for line in _packs(f"{packer}.pack_into({buffer}, "
                               f"{self._address(memref)}, {{}})", value,
                               dtype):
                self.gen.emit(line)

    @contextlib.contextmanager
    def _buffer_access(self, buffer: str, memref: MemRef, dtype: str):
        """Emit a shared or local access inside a ``try`` whose handler
        turns an offset ``struct`` refused into :func:`buffer_fault`'s
        kill (free until it raises). ``struct`` counts a negative
        offset from the end, so an address that may be negative (a
        negative displacement, or a register not bound through the
        64-bit wrap) is refused before the access."""
        gen = self.gen
        address = self._address(memref)
        fault = (f"_buffer_fault({buffer}, {address}, "
                 f"{isa.type_width(dtype)})")
        base = memref.base
        if memref.offset < 0 or (isinstance(base, Register)
                                 and not self._in_range(base)):
            gen.emit(f"if {address} < 0: {fault}")
        gen.emit("try:")
        gen.indent += 1
        yield
        gen.indent -= 1
        gen.emit("except _BUFFER_FAULTS:")
        gen.emit(f"    {fault}; raise")

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

    def _goto(self, target) -> None:
        self.gen.emit(f"_pc = {target}" if self.acyclic
                      else f"_pc = {target}; continue")

    def _emit_branch(self, ins, target: int) -> None:
        with self._guarded(ins, transfer=True):
            self._goto(target)

    def _emit_indirect_branch(self, ins, targets: tuple) -> None:
        gen = self.gen
        with self._guarded(ins, transfer=True):
            gen.emit(f"_brx_i = {self._expr(ins.operands[0])}")
            gen.emit(f"if not 0 <= _brx_i < {len(targets)}:")
            gen.indent += 1
            gen.emit("raise ExecutionError("
                     "'brx.idx index %d out of range' % _brx_i)")
            gen.indent -= 1
            self._goto(f"{targets}[_brx_i]")

    def _emit_barrier(self, next_block: int) -> None:
        # A parked thread may never resume (another one faults).
        self.gen.emit(f"{_FOLD_HITS}; _hits = 0")
        self.gen.emit("yield")
        self._goto(next_block)

    def _emit_exit(self, ins) -> None:
        with self._guarded(ins, transfer=True):
            self._emit_return()

    def _emit_return(self) -> None:
        self.gen.emit("_pc = -1" if self.acyclic else "break")  # no block

    # -- whole-kernel generation -------------------------------------------------------

    def generate(self, loop: bool) -> str:
        """Source of the kernel's per-thread function.

        ``loop`` (a kernel without ``bar``): ``_threads(params, shared,
        _gsyms, ntid, ctaid, nctaid, warp_size)`` runs every thread of
        one block to completion in linear order and returns the
        block's ``(warp cycles, instructions, loads, stores)``,
        evaluating :func:`invariant_prefix` once. Otherwise
        ``_thread(t, params, shared, _gsyms)`` is one thread's
        generator, suspending at each ``bar``, and adds its counts to
        the executor's thread record ``t``. Between the two prologues
        and epilogues the body is the same.
        """
        instructions = self.ck.instructions
        ordered, block_of = basic_blocks(instructions)
        start = invariant_prefix(instructions) if loop else 0
        prefix = instructions[:start]
        hoisted = {_mangle(ins.operands[0].name) for ins in prefix}
        rebound = sorted(hoisted & {
            _mangle(_written(ins)) for ins in instructions[start:]
            if _written(ins)})

        gen = self.gen
        if loop:
            gen.emit("def _threads(params, shared, _gsyms, ntid, ctaid, "
                     "nctaid, warp_size):")
            gen.indent += 1
            gen.emit("_ntid0, _ntid1, _ntid2 = ntid")
            gen.emit("_ctaid0, _ctaid1, _ctaid2 = ctaid")
            gen.emit("_nctaid0, _nctaid1, _nctaid2 = nctaid")
            # What the prefix charges, it charges to every thread.
            gen.emit("_cycles = _instr = _loads = 0")
            for ins in prefix:
                self._emit_instruction(ins)
            self._flush_static(sum(ins.compute_cycles for ins in prefix),
                               start)
            for name in rebound:
                gen.emit(f"_h{name} = {name}")
            gen.emit("_wsum = _wmax = _linear = 0; _cycles0 = _cycles")
            gen.emit("_n = _ntid0 * _ntid1 * _ntid2; _instr *= _n; "
                     "_loads *= _n; _stores = 0")
        else:
            gen.emit("def _thread(t, params, shared, _gsyms):")
            gen.indent += 1
            gen.emit("_tid0, _tid1, _tid2 = t.tid")
            gen.emit("_ntid0, _ntid1, _ntid2 = t.ntid")
            gen.emit("_ctaid0, _ctaid1, _ctaid2 = t.ctaid")
            gen.emit("_nctaid0, _nctaid1, _nctaid2 = t.nctaid")
            gen.emit("_lane = t.lane; _warp = t.warp")
            gen.emit("_cycles = 0; _instr = 0; _loads = 0; _stores = 0")
        # Way-0 hits are counted in _hits and folded however it ends.
        gen.emit("_hits = 0")
        gen.emit("try:")
        gen.indent += 1
        if loop:
            for axis in (2, 1, 0):
                gen.emit(f"for _tid{axis} in range(_ntid{axis}):")
                gen.indent += 1
            gen.emit("_lane = _linear % warp_size; "
                     "_warp = _linear // warp_size; _linear += 1")
            gen.emit("_cycles = _cycles0")
        body_start, body_indent = len(gen.lines), gen.indent
        if not self.acyclic:
            gen.emit("_steps = 0")
        if any(ins.route == isa.LOCAL for ins in instructions):
            gen.emit("_lmem = bytearray(_LOCAL_BYTES)")
        gen.emit("_pc = 0")
        if not self.acyclic:
            gen.emit("while True:")
            gen.indent += 1
            gen.emit("_steps += 1")
            gen.emit(f"if _steps > {MAX_BLOCK_STEPS}:")
            gen.emit("    raise ExecutionError('runaway kernel "
                     f"{self.ck.name}')")
        # Acyclic: the blocks in order, each if the one before named it.
        arms = gen.indent
        for block_id, leader in enumerate(ordered[:-1]):
            keyword = "elif" if block_id and not self.acyclic else "if"
            gen.emit(f"{keyword} _pc == {block_id}:")
            gen.indent += 1
            self._emit_block(instructions, max(leader, start),
                             ordered[block_id + 1], block_of)
            gen.indent = arms
        if not self.acyclic:
            gen.emit("else:" if len(ordered) > 1 else "if True:")
            gen.emit("    break")
            gen.indent -= 1
        if loop:
            # A warp costs its slowest thread (lockstep).
            gen.emit("if not _lane: _wsum += _wmax; _wmax = 0")
            gen.emit("if _cycles > _wmax: _wmax = _cycles")
            gen.indent -= 3
        gen.indent -= 1
        gen.emit("finally:")
        gen.emit("    " + _FOLD_HITS)
        if loop:
            gen.emit("return float(_wsum + _wmax), _instr, _loads, _stores")
        else:
            gen.emit("t.cycles += _cycles; t.instructions += _instr")
            gen.emit("t.loads += _loads; t.stores += _stores")

        # Initialise (per thread) every register local the body touches
        # but the prefix does not; re-bind the prefix values it rewrites.
        init = [f"{name} = 0" for name in sorted(self._declared - hoisted)]
        init += [f"{name} = _h{name}" for name in rebound]
        if init:
            gen.lines.insert(body_start,
                             "    " * body_indent + "; ".join(init))
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

    def __init__(self, barrier_free: bool, spannable: bool):
        self._thread = None
        #: ``(code, exits, access shifts)``, or the Unsupported reason.
        self._block = None
        #: No ``bar``: no thread waits for another, so the per-thread
        #: function is the loop over a block's threads
        #: (:meth:`ThreadCodegen.generate`).
        self.barrier_free = barrier_free
        #: No ``.shared`` and no ``bar``: a thread's only tie to its
        #: block is ``%ctaid``, so the block engine may run several
        #: blocks of a launch in one pass.
        self.spannable = spannable
        #: Counted loops the block function may run along the trip
        #: axis (``BlockCodegen.trip_loops``); None until it is built
        #: or when the kernel stays on the per-thread engine.
        self.trip_loops: Optional[int] = None

    def bind_thread(self, compiled, cost_model: CostModel, env: dict):
        if self._thread is None:
            name = "_threads" if self.barrier_free else "_thread"
            source = ThreadCodegen(compiled, cost_model).generate(
                self.barrier_free)
            self._thread = _function_code(
                source, f"<guardian-jit:{compiled.name}>", name)
        return types.FunctionType(self._thread, env, self._thread.co_name)

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
                self.trip_loops = len(generator.trip_loops)
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
            instructions = compiled.instructions
            barrier_free = not any(ins.op == "bar" for ins in instructions)
            code = _CODE_BY_CONTENT[key] = KernelCode(
                barrier_free=barrier_free,
                spannable=barrier_free and not compiled.shared_bytes
                and not any(ins.route == isa.SHARED for ins in instructions))
        compiled.code = code
    return code
